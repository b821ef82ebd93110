// util: PRNG determinism/uniformity, bit vector rank, packed DNA,
// thread pool, CLI args.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/args.hpp"
#include "util/bitvector.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"
#include "util/threadpool.hpp"

namespace {

using repute::util::Args;
using repute::util::BitVector;
using repute::util::PackedDna;
using repute::util::ThreadPool;
using repute::util::Xoshiro256;

// ------------------------------------------------------------------ PRNG

TEST(Prng, DeterministicForSeed) {
    Xoshiro256 a(42), b(42), c(43);
    bool all_equal = true, any_diff_c = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a(), vb = b(), vc = c();
        all_equal = all_equal && (va == vb);
        any_diff_c = any_diff_c || (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_c);
}

TEST(Prng, BoundedStaysInBounds) {
    Xoshiro256 rng(1);
    for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.bounded(bound), bound);
        }
    }
    EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Prng, BoundedIsRoughlyUniform) {
    Xoshiro256 rng(2);
    std::map<std::uint64_t, int> hist;
    const int n = 40'000;
    for (int i = 0; i < n; ++i) ++hist[rng.bounded(8)];
    for (const auto& [value, count] : hist) {
        EXPECT_NEAR(count, n / 8, n / 8 * 0.15) << "value " << value;
    }
}

TEST(Prng, UniformInUnitInterval) {
    Xoshiro256 rng(3);
    double sum = 0;
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

// ------------------------------------------------------------- BitVector

TEST(BitVector, RankMatchesNaiveCount) {
    Xoshiro256 rng(5);
    BitVector bv(10'000);
    std::vector<bool> shadow(10'000, false);
    for (int i = 0; i < 3000; ++i) {
        const std::size_t pos = rng.bounded(10'000);
        bv.set(pos);
        shadow[pos] = true;
    }
    bv.build_rank();

    std::size_t running = 0;
    for (std::size_t i = 0; i <= 10'000; i += 37) {
        EXPECT_EQ(bv.rank1(i), running + 0) << "i=" << i;
        // advance shadow count to next checkpoint
        for (std::size_t j = i; j < std::min<std::size_t>(i + 37, 10'000);
             ++j) {
            running += shadow[j] ? 1 : 0;
        }
    }
    EXPECT_EQ(bv.rank1(10'000), bv.count_ones());
}

TEST(BitVector, AllOnesConstruction) {
    BitVector bv(130, true);
    bv.build_rank();
    EXPECT_EQ(bv.count_ones(), 130u);
    EXPECT_EQ(bv.rank1(130), 130u);
    EXPECT_EQ(bv.rank1(65), 65u);
}

TEST(BitVector, EmptyVector) {
    BitVector bv;
    bv.build_rank();
    EXPECT_EQ(bv.size(), 0u);
    EXPECT_EQ(bv.count_ones(), 0u);
}

// ------------------------------------------------------------- PackedDna

TEST(PackedDna, RoundTripsAscii) {
    const std::string s = "ACGTACGTTTGGCCAA";
    const PackedDna dna{std::string_view(s)};
    EXPECT_EQ(dna.size(), s.size());
    EXPECT_EQ(dna.to_string(), s);
}

TEST(PackedDna, LowercaseAndUnknownBases) {
    const PackedDna dna{std::string_view("acgtN")};
    EXPECT_EQ(dna.to_string(), "ACGTA"); // N maps to code 0
}

TEST(PackedDna, CodeAtCrossesWordBoundaries) {
    Xoshiro256 rng(11);
    std::string s(200, 'A');
    for (auto& c : s) c = "ACGT"[rng.bounded(4)];
    const PackedDna dna{std::string_view(s)};
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(repute::util::code_to_base(dna.code_at(i)), s[i]) << "i=" << i;
    }
}

TEST(PackedDna, ExtractSubranges) {
    const PackedDna dna{std::string_view("AACCGGTTACGT")};
    const auto codes = dna.extract(2, 4);
    ASSERT_EQ(codes.size(), 4u);
    EXPECT_EQ(codes[0], 1u); // C
    EXPECT_EQ(codes[1], 1u); // C
    EXPECT_EQ(codes[2], 2u); // G
    EXPECT_EQ(codes[3], 2u); // G
    EXPECT_EQ(dna.to_string(8, 4), "ACGT");
}

TEST(PackedDna, ExtractMatchesCodeAtAtEveryOffset) {
    // extract() unpacks a word at a time; it must equal the per-base
    // code_at() for every start modulo 32 and every length 0-96, on an
    // owned sequence and on a view, up to the last (partial) word.
    Xoshiro256 rng(96);
    std::vector<std::uint8_t> codes(203); // 6 words + 11 bases
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.bounded(4));
    const PackedDna owned{std::span<const std::uint8_t>(codes)};
    const PackedDna view = PackedDna::view_of(owned.words(), owned.size());
    ASSERT_TRUE(view.is_view());
    std::vector<std::uint8_t> out;
    for (const PackedDna* dna : {&owned, &view}) {
        for (std::size_t len = 0; len <= 96; ++len) {
            // Every start modulo 32, then the starts that end exactly
            // at the sequence's last base.
            std::vector<std::size_t> starts;
            for (std::size_t pos = 0; pos < 32; ++pos) starts.push_back(pos);
            for (std::size_t back = 0; back < 32; ++back) {
                starts.push_back(dna->size() - len - back);
            }
            for (const std::size_t pos : starts) {
                out.assign(len + 1, 0xAB); // sentinel past the end
                dna->extract(pos, len, out.data());
                for (std::size_t i = 0; i < len; ++i) {
                    ASSERT_EQ(out[i], dna->code_at(pos + i))
                        << "pos=" << pos << " len=" << len << " i=" << i
                        << (dna->is_view() ? " (view)" : " (owned)");
                }
                ASSERT_EQ(out[len], 0xAB)
                    << "wrote past len: pos=" << pos << " len=" << len;
            }
        }
    }
}

TEST(PackedDna, CommonSuffixMatchesPerBaseCompare) {
    // common_suffix() compares 32 bases per XOR; it must equal a
    // per-base backward compare for every end pair and cap, including
    // ends in the first word (bases before 0 are never compared) and
    // runs longer than one word. pack_codes() must lay the words out
    // as PackedDna does.
    Xoshiro256 rng(7);
    std::vector<std::uint8_t> a(150), b(110);
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.bounded(4));
    // b repeats a stretch of a with a few planted mismatches.
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = a[i + 20];
    for (const std::size_t i : {3u, 40u, 41u, 100u}) b[i] ^= 1;
    const PackedDna pa{std::span<const std::uint8_t>(a)};
    std::vector<std::uint64_t> b_words(PackedDna::packed_word_count(b.size()));
    repute::util::pack_codes(b, b_words.data());
    const PackedDna pb{std::span<const std::uint8_t>(b)};
    ASSERT_TRUE(std::equal(b_words.begin(), b_words.end(),
                           pb.words().begin(), pb.words().end()));

    for (std::size_t a_end = 0; a_end <= a.size(); ++a_end) {
        for (std::size_t b_end = 0; b_end <= b.size(); ++b_end) {
            if (a_end != b_end + 20 && rng.bounded(8) != 0) continue;
            const std::size_t cap = std::min(a_end, b_end);
            for (const std::size_t limit : {cap, cap / 2}) {
                std::size_t naive = 0;
                while (naive < limit &&
                       a[a_end - 1 - naive] == b[b_end - 1 - naive]) {
                    ++naive;
                }
                std::uint64_t words = 0;
                ASSERT_EQ(repute::util::common_suffix(pa.words(), a_end,
                                                      b_words, b_end,
                                                      limit, words),
                          naive)
                    << "a_end=" << a_end << " b_end=" << b_end
                    << " limit=" << limit;
                EXPECT_LE(words, naive / 32 + 1);
            }
        }
    }
}

TEST(PackedDna, PushBackGrowsWords) {
    PackedDna dna;
    for (int i = 0; i < 100; ++i) {
        dna.push_back(static_cast<std::uint8_t>(i & 3));
    }
    EXPECT_EQ(dna.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(dna.code_at(static_cast<std::size_t>(i)), i & 3);
    }
}

TEST(PackedDna, FromWordsAdoptsPackedWords) {
    const PackedDna packed(
        std::string_view("ACGTTGCAACGTACGTAACCGGTTACGTACGTTT"));
    std::vector<std::uint64_t> words(packed.words().begin(),
                                     packed.words().end());
    const PackedDna adopted = PackedDna::from_words(words, packed.size());
    EXPECT_FALSE(adopted.is_view());
    EXPECT_EQ(adopted.to_string(), packed.to_string());
    EXPECT_EQ(adopted.heap_bytes(), words.size() * sizeof(std::uint64_t));
    words.push_back(0);
    EXPECT_THROW((void)PackedDna::from_words(words, packed.size()),
                 std::runtime_error);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsAllIterations) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(1000, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, EachIndexExactlyOnce) {
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(500);
    pool.parallel_for(500, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 500; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
    }
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t i) {
                                       if (i == 37) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, SlowIterationDoesNotHoldOthers) {
    // Iterations are claimed one at a time: while one worker sits in a
    // slow fn(0), the other drains every remaining index. A contiguous
    // split of the range would queue fn(0)'s neighbours behind it on
    // the same worker, and fn(0) would wait for them in vain.
    ThreadPool pool(2);
    constexpr std::size_t n = 64;
    std::atomic<std::size_t> done{0};
    bool drained = false;
    pool.parallel_for(n, [&](std::size_t i) {
        if (i == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (done.load() < n - 1 &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            drained = done.load() == n - 1;
        } else {
            ++done;
        }
    });
    EXPECT_TRUE(drained);
    EXPECT_EQ(done.load(), n - 1);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
    ThreadPool pool(2);
    std::atomic<int> value{0};
    auto f = pool.submit([&] { value = 7; });
    f.get();
    EXPECT_EQ(value.load(), 7);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
    ThreadPool pool(2);
    pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

// ------------------------------------------------------------------ Args

TEST(Args, ParsesAllForms) {
    // Note: a bare `--flag` followed by a non-flag token consumes it as
    // the flag's value, so boolean flags go last or use `--flag=true`.
    const char* argv[] = {"prog", "--alpha", "3",    "--beta=x", "pos1",
                          "--g",  "2.5",     "pos2", "--flag"};
    const Args args(9, argv);
    EXPECT_EQ(args.get_int("alpha", 0), 3);
    EXPECT_EQ(args.get_string("beta", ""), "x");
    EXPECT_TRUE(args.get_bool("flag", false));
    EXPECT_DOUBLE_EQ(args.get_double("g", 0.0), 2.5);
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "pos1");
    EXPECT_EQ(args.positional()[1], "pos2");
}

TEST(Args, DefaultsWhenAbsent) {
    const char* argv[] = {"prog"};
    const Args args(1, argv);
    EXPECT_EQ(args.get_int("missing", 17), 17);
    EXPECT_EQ(args.get_string("missing", "d"), "d");
    EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(Args, ListsUnknownNames) {
    const char* argv[] = {"prog", "--delta", "3", "--dleta=4", "pos",
                          "--b",  "--a"};
    const Args args(7, argv);
    constexpr std::string_view known[] = {"delta", "out"};
    EXPECT_EQ(args.unknown(known),
              (std::vector<std::string>{"a", "b", "dleta"}));
    constexpr std::string_view all[] = {"a", "b", "delta", "dleta"};
    EXPECT_TRUE(args.unknown(all).empty());
}

TEST(Args, RejectsMalformedValues) {
    const char* argv[] = {"prog", "--n", "abc"};
    const Args args(3, argv);
    EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
    EXPECT_THROW((void)args.get_bool("n", false), std::invalid_argument);
}

} // namespace
