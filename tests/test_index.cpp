// Suffix array and FM-Index correctness: SA-IS against the naive
// reference builder, backward search against brute-force scanning, and
// locate against the true suffix array.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>

#include "genomics/genome_sim.hpp"
#include "index/fm_index.hpp"
#include "index/qgram_table.hpp"
#include "index/suffix_array.hpp"
#include "util/prng.hpp"

namespace {

using repute::genomics::GenomeSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::index::build_suffix_array;
using repute::index::build_suffix_array_naive;
using repute::index::FmIndex;
using repute::index::sais;
using repute::util::PackedDna;
using repute::util::Xoshiro256;

std::string random_dna(Xoshiro256& rng, std::size_t n) {
    std::string s(n, 'A');
    for (auto& c : s) c = "ACGT"[rng.bounded(4)];
    return s;
}

/// Brute-force occurrence count of `pattern` in `text`.
std::size_t count_occurrences(const std::string& text,
                              const std::string& pattern) {
    if (pattern.empty() || pattern.size() > text.size()) return 0;
    std::size_t count = 0;
    for (std::size_t i = 0; i + pattern.size() <= text.size(); ++i) {
        if (text.compare(i, pattern.size(), pattern) == 0) ++count;
    }
    return count;
}

std::vector<std::uint8_t> to_codes(const std::string& s) {
    std::vector<std::uint8_t> codes(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        codes[i] = repute::util::base_to_code(s[i]);
    }
    return codes;
}

// ---------------------------------------------------------------- SA-IS

TEST(SuffixArray, MatchesNaiveOnFixedStrings) {
    for (const char* text :
         {"A", "AAAA", "ACGT", "BANANA-like: ABABABAB",
          "GATTACAGATTACA", "TTTTTTTTTTTTTTTTTTTT",
          "ACGTACGTACGTACGTACGTA"}) {
        // Non-ACGT bytes map to A via base_to_code; still a valid test.
        PackedDna dna{std::string_view(text)};
        EXPECT_EQ(build_suffix_array(dna), build_suffix_array_naive(dna))
            << "text: " << text;
    }
}

TEST(SuffixArray, MatchesNaiveOnRandomStrings) {
    Xoshiro256 rng(7);
    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 1 + rng.bounded(400);
        PackedDna dna{random_dna(rng, n)};
        ASSERT_EQ(build_suffix_array(dna), build_suffix_array_naive(dna))
            << "round " << round << " n=" << n;
    }
}

TEST(SuffixArray, SentinelRowIsFirst) {
    PackedDna dna{std::string_view("ACGTACGT")};
    const auto sa = build_suffix_array(dna);
    ASSERT_EQ(sa.size(), dna.size() + 1);
    EXPECT_EQ(sa[0], static_cast<std::int32_t>(dna.size()));
}

TEST(SuffixArray, IsAPermutation) {
    Xoshiro256 rng(13);
    PackedDna dna{random_dna(rng, 1000)};
    const auto sa = build_suffix_array(dna);
    std::set<std::int32_t> seen(sa.begin(), sa.end());
    EXPECT_EQ(seen.size(), sa.size());
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), static_cast<std::int32_t>(dna.size()));
}

TEST(Sais, RejectsMissingSentinel) {
    const std::vector<std::int32_t> no_sentinel = {1, 2, 3};
    EXPECT_THROW(sais(no_sentinel, 4), std::invalid_argument);
    const std::vector<std::int32_t> zero_inside = {1, 0, 2, 0};
    EXPECT_THROW(sais(zero_inside, 4), std::invalid_argument);
}

TEST(Sais, SortsIntegerAlphabet) {
    // abracadabra-style over small ints: 3 1 4 1 5 ... with sentinel.
    const std::vector<std::int32_t> text = {3, 1, 4, 1, 5, 9, 2, 6, 5,
                                            3, 5, 8, 9, 7, 9, 3, 2, 0};
    const auto sa = sais(text, 10);
    ASSERT_EQ(sa.size(), text.size());
    auto suffix_less = [&](std::int32_t a, std::int32_t b) {
        return std::lexicographical_compare(
            text.begin() + a, text.end(), text.begin() + b, text.end());
    };
    for (std::size_t i = 1; i < sa.size(); ++i) {
        EXPECT_TRUE(suffix_less(sa[i - 1], sa[i]))
            << "rows " << i - 1 << ", " << i;
    }
}

// ------------------------------------------------------------- FM-Index

class FmIndexRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmIndexRandomTest, CountsMatchBruteForce) {
    Xoshiro256 rng(GetParam());
    const std::size_t n = 200 + rng.bounded(2000);
    const std::string text = random_dna(rng, n);
    const Reference ref("t", PackedDna{text});
    const FmIndex fm(ref, /*sa_sample=*/1 + GetParam() % 7);

    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t len = 1 + rng.bounded(24);
        std::string pattern;
        if (rng.chance(0.7) && len <= n) {
            const std::size_t pos = rng.bounded(n - len + 1);
            pattern = text.substr(pos, len); // guaranteed present
        } else {
            pattern = random_dna(rng, len);
        }
        const auto range = fm.search(to_codes(pattern));
        EXPECT_EQ(range.count(), count_occurrences(text, pattern))
            << "pattern " << pattern;
    }
}

TEST_P(FmIndexRandomTest, LocateReturnsTrueOccurrences) {
    Xoshiro256 rng(GetParam() * 31 + 5);
    const std::size_t n = 500 + rng.bounded(1500);
    const std::string text = random_dna(rng, n);
    const Reference ref("t", PackedDna{text});
    const FmIndex fm(ref, /*sa_sample=*/4);

    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t len = 4 + rng.bounded(16);
        const std::size_t pos = rng.bounded(n - len + 1);
        const std::string pattern = text.substr(pos, len);
        const auto range = fm.search(to_codes(pattern));
        ASSERT_FALSE(range.empty());

        std::vector<std::uint32_t> hits;
        fm.locate_range(range, range.count(), hits);
        ASSERT_EQ(hits.size(), range.count());
        std::sort(hits.begin(), hits.end());
        EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(), pos));
        for (const auto h : hits) {
            EXPECT_EQ(text.substr(h, len), pattern) << "hit at " << h;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmIndexRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FmIndex, WholeRangeAndEmptyPattern) {
    const Reference ref("t", PackedDna{std::string_view("ACGTACGTAC")});
    const FmIndex fm(ref);
    const auto whole = fm.whole_range();
    EXPECT_EQ(whole.count(), ref.size() + 1);
    EXPECT_EQ(fm.search({}).count(), whole.count());
}

TEST(FmIndex, ExtendAgreesWithSearch) {
    Xoshiro256 rng(99);
    const std::string text = random_dna(rng, 3000);
    const Reference ref("t", PackedDna{text});
    const FmIndex fm(ref);

    // A pattern guaranteed present: extend never hits an empty range,
    // so the step-by-step walk must land on exactly search()'s range.
    const std::string pattern = text.substr(1234, 12);
    const auto codes = to_codes(pattern);
    auto range = fm.whole_range();
    for (std::size_t i = codes.size(); i-- > 0;) {
        range = fm.extend(range, codes[i]);
    }
    EXPECT_EQ(range, fm.search(codes));
    EXPECT_FALSE(range.empty());

    // For an absent pattern both must agree that the range is empty
    // (the exact lo/hi of an empty range is unspecified).
    const auto absent = to_codes(random_dna(rng, 40));
    auto r2 = fm.whole_range();
    for (std::size_t i = absent.size(); i-- > 0;) {
        r2 = fm.extend(r2, absent[i]);
    }
    EXPECT_EQ(r2.empty(), fm.search(absent).empty());
}

TEST(FmIndex, LfWalksTextBackwards) {
    const std::string text = "GATTACA";
    const Reference ref("t", PackedDna{std::string_view(text)});
    const FmIndex fm(ref, /*sa_sample=*/1);
    // Row 0 is the sentinel suffix (text position n). Walking LF from
    // the row of suffix k reaches the row of suffix k-1.
    // Instead verify: locate(lf(row)) == locate(row) - 1 for rows whose
    // suffix position > 0.
    for (std::uint32_t row = 0; row <= text.size(); ++row) {
        const auto pos = fm.locate(row);
        if (pos == 0) continue;
        EXPECT_EQ(fm.locate(fm.lf(row)), pos - 1) << "row " << row;
    }
}

TEST(FmIndex, OccIsMonotoneAndConsistent) {
    Xoshiro256 rng(123);
    const std::string text = random_dna(rng, 4096);
    const Reference ref("t", PackedDna{text});
    const FmIndex fm(ref);
    const auto rows = static_cast<std::uint32_t>(text.size() + 1);
    for (std::uint8_t c = 0; c < 4; ++c) {
        std::uint32_t prev = 0;
        for (std::uint32_t i = 0; i <= rows; i += 97) {
            const auto o = fm.occ(c, i);
            EXPECT_GE(o, prev);
            EXPECT_LE(o - prev, i == 0 ? 0u : 97u);
            prev = o;
        }
    }
    // Total symbol counts add up to n (sentinel excluded).
    EXPECT_EQ(fm.occ(0, rows) + fm.occ(1, rows) + fm.occ(2, rows) +
                  fm.occ(3, rows),
              text.size());
}

TEST(FmIndex, OccMatchesScalarReferenceAcrossGeometries) {
    // Property: the interleaved rank blocks (checkpoint counts + packed
    // BWT + u8 sub-counts fused per cache line) must answer occ()
    // exactly like a scalar count over the BWT — for every row, symbol,
    // and block geometry, including the word-scan fallback used when
    // checkpoint_every is too large for u8 sub-counts (> 256).
    Xoshiro256 rng(2026);
    for (const std::uint32_t cpe : {32u, 64u, 128u, 256u, 512u, 1024u}) {
        const std::size_t n = 700 + rng.bounded(3000);
        const std::string text = random_dna(rng, n);
        const Reference ref("t", PackedDna{text});
        const FmIndex fm(ref, /*sa_sample=*/4, cpe);

        // Scalar reference: BWT[row] = text[sa[row] - 1] (sentinel row
        // excluded from every symbol's count).
        const auto sa = build_suffix_array(ref.sequence());
        std::array<std::vector<std::uint32_t>, 4> prefix;
        for (auto& p : prefix) p.assign(sa.size() + 1, 0);
        for (std::size_t row = 0; row < sa.size(); ++row) {
            for (int c = 0; c < 4; ++c) {
                prefix[c][row + 1] = prefix[c][row];
            }
            if (sa[row] != 0) {
                ++prefix[repute::util::base_to_code(
                    text[static_cast<std::size_t>(sa[row]) - 1])][row + 1];
            }
        }
        for (std::uint32_t row = 0; row <= n + 1; ++row) {
            for (std::uint8_t c = 0; c < 4; ++c) {
                ASSERT_EQ(fm.occ(c, row), prefix[c][row])
                    << "cpe=" << cpe << " row=" << row << " code="
                    << int(c);
            }
        }
    }
}

TEST(FmIndex, QGramLookupsMatchBackwardSearch) {
    // Every jump-table hit must be the exact range a symbol-by-symbol
    // backward search produces — the invariant that makes the q-gram
    // fast path output-invisible.
    Xoshiro256 rng(777);
    const std::string text = random_dna(rng, 20'000);
    const Reference ref("t", PackedDna{text});
    const FmIndex fm(ref, 4, 128, /*qgram_length=*/8);
    const auto* qt = fm.qgrams();
    ASSERT_NE(qt, nullptr);

    for (int trial = 0; trial < 400; ++trial) {
        const std::uint32_t len = 1 + rng.bounded(qt->q());
        std::vector<std::uint8_t> codes(len);
        if (rng.chance(0.7)) {
            const std::size_t pos = rng.bounded(text.size() - len);
            for (std::uint32_t i = 0; i < len; ++i) {
                codes[i] = repute::util::base_to_code(text[pos + i]);
            }
        } else {
            for (auto& c : codes) {
                c = static_cast<std::uint8_t>(rng.bounded(4));
            }
        }
        const auto expected = fm.search(codes);
        const auto got = qt->lookup(codes);
        if (expected.empty()) {
            EXPECT_TRUE(got.empty()) << "trial " << trial;
        } else {
            EXPECT_EQ(got, expected) << "trial " << trial;
        }
        // The incremental-index form scanners use (prepend symbol c to a
        // length-L pattern: idx |= c << 2L) must agree with the span form.
        std::uint64_t idx = 0;
        for (std::uint32_t l = 1; l <= len; ++l) {
            idx |= static_cast<std::uint64_t>(codes[len - l])
                   << (2 * (l - 1));
        }
        EXPECT_EQ(qt->lookup(len, idx).count(), got.count());
    }
}

TEST(FmIndex, QGramTableCappedByReferenceFootprint) {
    // The effective q shrinks on small references so the table never
    // outweighs the text it accelerates; q=0 disables it entirely.
    Xoshiro256 rng(31);
    const std::string small = random_dna(rng, 1000);
    const Reference ref("s", PackedDna{small});
    const FmIndex tiny(ref, 4, 128, 8);
    ASSERT_NE(tiny.qgrams(), nullptr);
    EXPECT_LT(tiny.qgrams()->q(), 8u);
    EXPECT_LE(repute::index::QGramTable::table_bytes(tiny.qgrams()->q()),
              std::max<std::size_t>(small.size() + 1, 4096));

    const FmIndex off(ref, 4, 128, 0);
    EXPECT_EQ(off.qgrams(), nullptr);
}

TEST(FmIndex, WorksOnRepeatRichSimulatedGenome) {
    GenomeSimConfig config;
    config.length = 50'000;
    config.seed = 42;
    const Reference ref = simulate_genome(config);
    const FmIndex fm(ref, 4);

    Xoshiro256 rng(4242);
    const std::string text = ref.sequence().to_string();
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t len = 8 + rng.bounded(20);
        const std::size_t pos = rng.bounded(text.size() - len);
        const std::string pattern = text.substr(pos, len);
        EXPECT_EQ(fm.search(to_codes(pattern)).count(),
                  count_occurrences(text, pattern));
    }
}

} // namespace
