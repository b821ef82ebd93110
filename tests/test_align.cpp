// Alignment kernels: the DP references against hand-checked cases, and
// the Myers bit-vector / banded DP against the full DP on random sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "align/edit_distance.hpp"
#include "align/myers.hpp"
#include "full_table_align.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"

namespace {

using repute::align::banded_semiglobal_distance;
using repute::align::levenshtein;
using repute::align::MyersMatcher;
using repute::align::semiglobal_align;
using repute::align::semiglobal_distance;
using repute::oracle::full_table_semiglobal_align;
using repute::util::Xoshiro256;

std::vector<std::uint8_t> codes(const std::string& s) {
    std::vector<std::uint8_t> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        out[i] = repute::util::base_to_code(s[i]);
    }
    return out;
}

/// Random codes over the first `alphabet` letters (2 makes ties common).
std::vector<std::uint8_t> random_codes(Xoshiro256& rng, std::size_t n,
                                       std::uint32_t alphabet = 4) {
    std::vector<std::uint8_t> out(n);
    for (auto& c : out) c = static_cast<std::uint8_t>(rng.bounded(alphabet));
    return out;
}

/// Applies up to `edits` random substitutions and indels to a copy of
/// `base`, staying inside the first `alphabet` letters.
std::vector<std::uint8_t> mutate(Xoshiro256& rng,
                                 std::vector<std::uint8_t> base,
                                 std::uint32_t edits,
                                 std::uint32_t alphabet = 4) {
    for (std::uint32_t e = 0; e < edits && !base.empty(); ++e) {
        const auto kind = rng.bounded(3);
        const std::size_t pos = rng.bounded(base.size());
        if (kind == 0) {
            base[pos] = static_cast<std::uint8_t>(
                (base[pos] + 1 + rng.bounded(alphabet - 1)) % alphabet);
        } else if (kind == 1) {
            base.insert(base.begin() + static_cast<std::ptrdiff_t>(pos),
                        static_cast<std::uint8_t>(rng.bounded(alphabet)));
        } else {
            base.erase(base.begin() + static_cast<std::ptrdiff_t>(pos));
        }
    }
    return base;
}

// ----------------------------------------------------------- references

TEST(Levenshtein, HandCheckedCases) {
    EXPECT_EQ(levenshtein(codes(""), codes("")), 0u);
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("ACGT")), 0u);
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("")), 4u);
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("AGT")), 1u);  // deletion
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("AACGT")), 1u); // insertion
    EXPECT_EQ(levenshtein(codes("ACGT"), codes("ACCT")), 1u);  // sub
    EXPECT_EQ(levenshtein(codes("AAAA"), codes("TTTT")), 4u);
    EXPECT_EQ(levenshtein(codes("GATTACA"), codes("TACT")), 4u);
}

TEST(Levenshtein, SymmetricAndTriangle) {
    Xoshiro256 rng(5);
    for (int i = 0; i < 40; ++i) {
        const auto a = random_codes(rng, 1 + rng.bounded(40));
        const auto b = random_codes(rng, 1 + rng.bounded(40));
        const auto c = random_codes(rng, 1 + rng.bounded(40));
        const auto ab = levenshtein(a, b);
        EXPECT_EQ(ab, levenshtein(b, a));
        EXPECT_LE(levenshtein(a, c), ab + levenshtein(b, c));
    }
}

TEST(SemiGlobal, ZeroWhenPatternIsSubstring) {
    EXPECT_EQ(semiglobal_distance(codes("TACA"), codes("GATTACAG")), 0u);
    EXPECT_EQ(semiglobal_distance(codes("GATT"), codes("GATTACAG")), 0u);
    EXPECT_EQ(semiglobal_distance(codes("ACAG"), codes("GATTACAG")), 0u);
}

TEST(SemiGlobal, NeverExceedsGlobalDistance) {
    Xoshiro256 rng(17);
    for (int i = 0; i < 60; ++i) {
        const auto p = random_codes(rng, 1 + rng.bounded(30));
        const auto t = random_codes(rng, 1 + rng.bounded(60));
        EXPECT_LE(semiglobal_distance(p, t), levenshtein(p, t));
        EXPECT_LE(semiglobal_distance(p, t), p.size());
    }
}

TEST(SemiGlobalAlign, TracebackConsistency) {
    const auto result =
        semiglobal_align(codes("TACA"), codes("GATTACAG"), 1);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->distance, 0u);
    EXPECT_EQ(result->cigar, "4M");
    EXPECT_EQ(result->text_start, 3u);
    EXPECT_EQ(result->text_end, 7u);
}

TEST(SemiGlobalAlign, RejectsAboveMaxDistance) {
    EXPECT_FALSE(
        semiglobal_align(codes("AAAA"), codes("TTTTTTTT"), 2).has_value());
    EXPECT_TRUE(
        semiglobal_align(codes("AAAA"), codes("TTTTTTTT"), 4).has_value());
}

TEST(SemiGlobalAlign, CigarConsumesWholePattern) {
    Xoshiro256 rng(23);
    for (int i = 0; i < 40; ++i) {
        const auto p = random_codes(rng, 4 + rng.bounded(40));
        const auto t = mutate(rng, p, rng.bounded(4));
        if (t.empty()) continue;
        const auto result = semiglobal_align(
            p, t, static_cast<std::uint32_t>(p.size()));
        ASSERT_TRUE(result.has_value());
        // Parse CIGAR: M and I consume pattern bases.
        std::size_t consumed = 0, num = 0;
        for (const char c : result->cigar) {
            if (c >= '0' && c <= '9') {
                num = num * 10 + static_cast<std::size_t>(c - '0');
            } else {
                if (c == 'M' || c == 'I') consumed += num;
                num = 0;
            }
        }
        EXPECT_EQ(consumed, p.size()) << "cigar " << result->cigar;
        EXPECT_EQ(result->distance, semiglobal_distance(p, t));
    }
}

/// Checks semiglobal_align against the full-table oracle; returns
/// whether the oracle aligned within `max_distance`.
bool expect_same_alignment(std::span<const std::uint8_t> p,
                           std::span<const std::uint8_t> t,
                           std::uint32_t max_distance, int trial) {
    const auto banded = semiglobal_align(p, t, max_distance);
    const auto full = full_table_semiglobal_align(p, t, max_distance);
    const auto where = ::testing::Message()
                       << "trial " << trial << " m=" << p.size()
                       << " t=" << t.size() << " delta=" << max_distance;
    EXPECT_EQ(banded.has_value(), full.has_value()) << where;
    if (!banded.has_value() || !full.has_value()) return full.has_value();
    EXPECT_EQ(banded->distance, full->distance) << where;
    EXPECT_EQ(banded->text_start, full->text_start) << where;
    EXPECT_EQ(banded->text_end, full->text_end) << where;
    EXPECT_EQ(banded->cigar, full->cigar) << where;
    return true;
}

TEST(SemiGlobalAlign, BandedMatchesFullTableOracle) {
    // The shapes annotate_mapping produces (a read in a window of
    // n + 2*delta reference bases, clipped at the reference end) and the
    // edges around them: delta 0, delta >= m, short and empty texts.
    Xoshiro256 rng(1701);
    std::size_t aligned = 0;
    constexpr int kTrials = 120'000;
    for (int trial = 0; trial < kTrials; ++trial) {
        const std::uint32_t alphabet = rng.chance(0.5) ? 2 : 4;
        const std::size_t m = rng.bounded(121);
        const auto p = random_codes(rng, m, alphabet);
        std::uint32_t delta = static_cast<std::uint32_t>(rng.bounded(9));
        if (rng.chance(0.05)) {
            delta = static_cast<std::uint32_t>(m + rng.bounded(4));
        }
        std::vector<std::uint8_t> t;
        switch (rng.bounded(4)) {
        case 0: // planted: flank + pattern with edits + flank
        case 1: {
            t = random_codes(rng, rng.bounded(delta + 3), alphabet);
            const auto core = mutate(
                rng, p, static_cast<std::uint32_t>(rng.bounded(delta + 2)),
                alphabet);
            t.insert(t.end(), core.begin(), core.end());
            const auto right =
                random_codes(rng, rng.bounded(delta + 3), alphabet);
            t.insert(t.end(), right.begin(), right.end());
            break;
        }
        case 2: // unrelated text up to the full window length
            t = random_codes(rng, rng.bounded(m + 2 * delta + 2), alphabet);
            break;
        default: { // reference-end clip: a planted window cut short
            t = mutate(rng, p, static_cast<std::uint32_t>(rng.bounded(3)),
                       alphabet);
            t.resize(rng.bounded(t.size() + 1));
            break;
        }
        }
        if (expect_same_alignment(p, t, delta, trial)) ++aligned;
        if (::testing::Test::HasFailure()) return; // first mismatch only
    }
    // Both outcomes must be well represented for the sweep to mean much.
    EXPECT_GT(aligned, kTrials / 10);
    EXPECT_LT(aligned, kTrials - kTrials / 10);
}

TEST(SemiGlobalAlign, BandEdgeDiagonalsHoldInsertionRuns) {
    // Cost-delta alignments that run along the band's outer diagonals:
    // delta leading insertions then matches from text column 0 (k =
    // -delta), or matches up to the last text column then delta trailing
    // insertions (k = t - m + delta). A band one diagonal narrower on
    // either side loses them.
    Xoshiro256 rng(404);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint32_t delta = 1 + static_cast<std::uint32_t>(
                                            rng.bounded(8));
        const std::size_t m = delta + 1 + rng.bounded(140);
        const auto text = random_codes(rng, m + 2 * delta);
        const auto extra = random_codes(rng, delta);
        std::vector<std::uint8_t> lead(extra);
        lead.insert(lead.end(), text.begin(),
                    text.begin() + static_cast<std::ptrdiff_t>(m - delta));
        std::vector<std::uint8_t> trail(
            text.end() - static_cast<std::ptrdiff_t>(m - delta), text.end());
        trail.insert(trail.end(), extra.begin(), extra.end());
        EXPECT_TRUE(expect_same_alignment(lead, text, delta, trial));
        EXPECT_TRUE(expect_same_alignment(trail, text, delta, trial));
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(SemiGlobalAlign, BandedMatchesOracleOnEdgeShapes) {
    Xoshiro256 rng(77);
    const auto p = random_codes(rng, 40);
    const std::vector<std::uint8_t> empty;
    for (std::uint32_t delta : {0u, 1u, 5u, 39u, 40u, 41u, 1000u}) {
        expect_same_alignment(p, empty, delta, -1);
        expect_same_alignment(empty, p, delta, -2);
        expect_same_alignment(empty, empty, delta, -3);
        expect_same_alignment(p, p, delta, -4);
        // Prefixes of the pattern: shorter than m - delta, than m, and
        // so than m + 2*delta.
        for (std::size_t len : {std::size_t{1}, std::size_t{10},
                                std::size_t{35}, std::size_t{39}}) {
            expect_same_alignment(
                p, std::span<const std::uint8_t>(p).first(len), delta,
                static_cast<int>(len));
        }
    }
    // delta >= m never rejects: the worst case is all insertions.
    const auto all_ins = semiglobal_align(p, empty, 40);
    ASSERT_TRUE(all_ins.has_value());
    EXPECT_EQ(all_ins->cigar, "40I");
    EXPECT_FALSE(semiglobal_align(p, empty, 39).has_value());
}

/// `unit` repeated from phase `phase` out to `n` codes.
std::vector<std::uint8_t> tandem(const std::vector<std::uint8_t>& unit,
                                 std::size_t phase, std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = unit[(phase + i) % unit.size()];
    }
    return out;
}

TEST(SemiGlobalAlign, MultiWordPathsMatchFullTableOracle) {
    // Pattern lengths on both sides of the word boundaries the aligner
    // dispatches on, and one in each of the 5- to 8-word classes, with
    // the window shapes annotate_mapping produces at those lengths.
    Xoshiro256 rng(2718);
    for (const std::size_t m : std::initializer_list<std::size_t>{
             63, 64, 65, 127, 128, 129, 192, 193, 320, 384, 448, 512}) {
        const int trials = m == 512 ? 60 : 150;
        std::size_t aligned = 0;
        for (int trial = 0; trial < trials; ++trial) {
            const std::uint32_t alphabet = rng.chance(0.5) ? 2 : 4;
            auto delta = static_cast<std::uint32_t>(1 + rng.bounded(16));
            if (trial % 10 == 0) delta = 0;
            if (trial % 10 == 1) {
                delta = static_cast<std::uint32_t>(m + rng.bounded(3));
            }
            std::vector<std::uint8_t> p, t;
            if (trial % 3 == 2 && delta > 0) {
                // Tandem repeat of period <= 2*delta: runs of end
                // columns tie on the best distance, so the first argmin
                // and the tie-breaks decide the output.
                const auto unit = random_codes(
                    rng, 1 + rng.bounded(2 * delta), alphabet);
                p = tandem(unit, rng.bounded(unit.size()), m);
                t = mutate(rng,
                           tandem(unit, rng.bounded(unit.size()),
                                  m + 2 * delta),
                           static_cast<std::uint32_t>(rng.bounded(delta + 1)),
                           alphabet);
            } else {
                p = random_codes(rng, m, alphabet);
                t = random_codes(rng, rng.bounded(delta + 3), alphabet);
                const auto core = mutate(
                    rng, p,
                    static_cast<std::uint32_t>(rng.bounded(delta + 2)),
                    alphabet);
                t.insert(t.end(), core.begin(), core.end());
                const auto right =
                    random_codes(rng, rng.bounded(delta + 3), alphabet);
                t.insert(t.end(), right.begin(), right.end());
            }
            // Reference-end clips: cut the window short on the left or
            // on the right, by up to 2*delta + 2 bases.
            const std::size_t clip =
                std::min(t.size(), rng.bounded(2 * delta + 3));
            switch (rng.bounded(3)) {
            case 0:
                t.erase(t.begin(),
                        t.begin() + static_cast<std::ptrdiff_t>(clip));
                break;
            case 1: t.resize(t.size() - clip); break;
            default: break;
            }
            if (expect_same_alignment(p, t, delta, trial)) ++aligned;
            if (::testing::Test::HasFailure()) return; // first mismatch
        }
        EXPECT_GT(aligned, 0u) << "m=" << m;
    }
}

// ----------------------------------------------------------- banded DP

TEST(BandedSemiGlobal, MatchesFullDpWithinBand) {
    Xoshiro256 rng(31);
    for (int i = 0; i < 120; ++i) {
        const auto p = random_codes(rng, 8 + rng.bounded(60));
        const auto edits = static_cast<std::uint32_t>(rng.bounded(6));
        auto t = mutate(rng, p, edits);
        if (t.empty()) t = random_codes(rng, 4);
        const std::uint32_t band = 1 + static_cast<std::uint32_t>(
                                           rng.bounded(8));
        const auto exact = semiglobal_distance(p, t);
        const auto banded = banded_semiglobal_distance(p, t, band);
        if (exact <= band) {
            EXPECT_EQ(banded, exact)
                << "band " << band << " |p|=" << p.size()
                << " |t|=" << t.size();
        } else {
            EXPECT_EQ(banded, band + 1);
        }
    }
}

// -------------------------------------------------------- Myers matcher

TEST(Myers, RejectsBadPatterns) {
    EXPECT_THROW(MyersMatcher(codes("")), std::invalid_argument);
    EXPECT_THROW(MyersMatcher(std::vector<std::uint8_t>(513, 0)),
                 std::invalid_argument);
    EXPECT_NO_THROW(MyersMatcher(std::vector<std::uint8_t>(512, 1)));
}

TEST(Myers, ExactSubstringScoresZero) {
    const MyersMatcher m(codes("TTACA"));
    const auto hit = m.best_in(codes("GATTACAGATT"));
    EXPECT_EQ(hit.distance, 0u);
    EXPECT_EQ(hit.text_end, 7u);
}

class MyersSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(MyersSweep, MatchesFullDpSemiGlobal) {
    const auto [pattern_len, seed] = GetParam();
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 1000 + pattern_len);
    for (int trial = 0; trial < 25; ++trial) {
        const auto p = random_codes(rng, pattern_len);
        // Mix of related and unrelated texts around the pattern length.
        std::vector<std::uint8_t> t;
        if (rng.chance(0.6)) {
            t = mutate(rng, p, static_cast<std::uint32_t>(rng.bounded(10)));
            // Embed in flanking sequence.
            auto left = random_codes(rng, rng.bounded(20));
            auto right = random_codes(rng, rng.bounded(20));
            left.insert(left.end(), t.begin(), t.end());
            left.insert(left.end(), right.begin(), right.end());
            t = std::move(left);
        } else {
            t = random_codes(rng, 1 + rng.bounded(2 * pattern_len));
        }
        const MyersMatcher m(p);
        const auto hit = m.best_in(t);
        EXPECT_EQ(hit.distance, semiglobal_distance(p, t))
            << "len " << pattern_len << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, MyersSweep,
    ::testing::Combine(
        // Word-boundary cases matter: 1 word (<=64), exactly 64,
        // 2 words (100, 128), 3 words (150, 192), 4+ (200, 300).
        ::testing::Values<std::size_t>(5, 17, 33, 63, 64, 65, 100, 127,
                                       128, 129, 150, 192, 200, 300),
        ::testing::Values(1, 2, 3)));

TEST(Myers, EarliestBestEndReported) {
    // Pattern occurs twice exactly; the earlier end must win.
    const MyersMatcher m(codes("ACGT"));
    const auto hit = m.best_in(codes("TTACGTTTACGTTT"));
    EXPECT_EQ(hit.distance, 0u);
    EXPECT_EQ(hit.text_end, 6u);
}

TEST(Myers, ScanCostScalesWithWords) {
    Xoshiro256 rng(1);
    const MyersMatcher one_word(random_codes(rng, 64));
    const MyersMatcher three_words(random_codes(rng, 150));
    EXPECT_EQ(one_word.scan_cost(100), 100u);
    EXPECT_EQ(three_words.scan_cost(100), 300u);
}

TEST(Myers, EmptyTextReturnsPatternLength) {
    const MyersMatcher m(codes("ACGTACGT"));
    const auto hit = m.best_in({});
    EXPECT_EQ(hit.distance, 8u);
    EXPECT_EQ(hit.text_end, 0u);
}

// ------------------------------------------------- banded Myers matcher

class MyersBandedSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(MyersBandedSweep, AgreesWithFullScanAtEveryDelta) {
    const auto [pattern_len, seed] = GetParam();
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7777 + pattern_len);
    for (int trial = 0; trial < 25; ++trial) {
        const auto p = random_codes(rng, pattern_len);
        std::vector<std::uint8_t> t;
        if (rng.chance(0.6)) {
            t = mutate(rng, p, static_cast<std::uint32_t>(rng.bounded(10)));
            auto left = random_codes(rng, rng.bounded(20));
            auto right = random_codes(rng, rng.bounded(20));
            left.insert(left.end(), t.begin(), t.end());
            left.insert(left.end(), right.begin(), right.end());
            t = std::move(left);
        } else {
            t = random_codes(rng, 1 + rng.bounded(2 * pattern_len));
        }
        const MyersMatcher m(p);
        const auto full = m.best_in(t);
        const auto full_ops = m.last_word_ops();
        EXPECT_EQ(full_ops, m.scan_cost(t.size()));
        for (std::uint32_t delta = 0; delta <= 8; ++delta) {
            const auto banded = m.best_in_bounded(t, delta);
            if (full.distance <= delta) {
                // Exact contract below the bound: same distance, same
                // earliest end.
                EXPECT_EQ(banded.distance, full.distance)
                    << "len " << pattern_len << " delta " << delta;
                EXPECT_EQ(banded.text_end, full.text_end)
                    << "len " << pattern_len << " delta " << delta;
            } else {
                EXPECT_GT(banded.distance, delta)
                    << "len " << pattern_len << " delta " << delta;
            }
            // The banded scan never does more work than the full scan.
            EXPECT_LE(m.last_word_ops(), full_ops);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, MyersBandedSweep,
    ::testing::Combine(
        ::testing::Values<std::size_t>(5, 17, 63, 64, 65, 100, 127, 128,
                                       129, 150, 192, 200, 300),
        ::testing::Values(1, 2, 3)));

TEST(MyersBanded, SkipsWordsOutsideTheBand) {
    // n=300 (5 words), short window: the band never reaches the high
    // words early and freezes low words late, so the banded scan must
    // do measurably fewer word-columns than the full scan.
    Xoshiro256 rng(99);
    const auto p = random_codes(rng, 300);
    const auto t = random_codes(rng, 310);
    const MyersMatcher m(p);
    (void)m.best_in(t);
    const auto full_ops = m.last_word_ops();
    (void)m.best_in_bounded(t, 5);
    EXPECT_LT(m.last_word_ops(), full_ops / 2)
        << "banded scan did " << m.last_word_ops() << " of " << full_ops;
}

TEST(MyersBanded, EarlyExitOnHopelessWindowIsFlagged) {
    // All-A pattern vs all-T text: the bottom score stays ~m, so the
    // Lipschitz bound abandons the scan long before the last column.
    const std::vector<std::uint8_t> p(100, 0), t(500, 3);
    const MyersMatcher m(p);
    const auto hit = m.best_in_bounded(t, 5);
    EXPECT_GT(hit.distance, 5u);
    EXPECT_TRUE(hit.early_exit);
    EXPECT_LT(m.last_word_ops(), m.scan_cost(t.size()));
}

TEST(MyersBanded, ExactHitStopsAtZero) {
    const MyersMatcher m(codes("ACGT"));
    const auto hit = m.best_in_bounded(codes("TTACGTTTACGTTT"), 1);
    EXPECT_EQ(hit.distance, 0u);
    EXPECT_EQ(hit.text_end, 6u);
    EXPECT_TRUE(hit.early_exit);
}

TEST(MyersBanded, WindowShorterThanPattern) {
    // Clamped windows at reference boundaries can be shorter than the
    // read; the scan must survive and agree with the full DP.
    Xoshiro256 rng(123);
    for (int trial = 0; trial < 40; ++trial) {
        const auto p = random_codes(rng, 20 + rng.bounded(120));
        const auto t = random_codes(rng, 1 + rng.bounded(p.size() - 1));
        const MyersMatcher m(p);
        const auto full = m.best_in(t);
        for (const std::uint32_t delta : {0u, 3u, 5u}) {
            const auto banded = m.best_in_bounded(t, delta);
            if (full.distance <= delta) {
                EXPECT_EQ(banded.distance, full.distance);
                EXPECT_EQ(banded.text_end, full.text_end);
            } else {
                EXPECT_GT(banded.distance, delta);
            }
        }
    }
}

TEST(MyersBanded, EmptyTextReturnsPatternLength) {
    const MyersMatcher m(codes("ACGTACGT"));
    const auto hit = m.best_in_bounded({}, 3);
    EXPECT_EQ(hit.distance, 8u);
    EXPECT_EQ(hit.text_end, 0u);
    EXPECT_FALSE(hit.early_exit);
    EXPECT_EQ(m.last_word_ops(), 0u);
}

} // namespace
