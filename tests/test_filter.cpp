// Filtration: partition invariants for every seeder, equivalence of the
// memory-optimized DP with the full Optimal Seed Solver, optimality of
// the DP against brute-force enumeration, frequency scanner consistency,
// candidate gathering, and the pigeonhole zero certificate (exactly the
// DP's zero optimum, and sound against a brute-force edit scan).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "filter/candidates.hpp"
#include "filter/frequency_scanner.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "filter/optimal_seeder.hpp"
#include "filter/uniform_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "index/qgram_table.hpp"
#include "index/shard_plan.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"

namespace {

using repute::filter::FrequencyScanner;
using repute::filter::gather_candidates;
using repute::filter::HeuristicSeeder;
using repute::filter::MemoryOptimizedSeeder;
using repute::filter::OptimalSeeder;
using repute::filter::ScanWork;
using repute::filter::Seeder;
using repute::filter::SeedPlan;
using repute::filter::SeedScratch;
using repute::filter::UniformSeeder;
using repute::filter::zero_certificate;
using repute::genomics::GenomeSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::index::FmIndex;
using repute::util::Xoshiro256;

/// Shared fixture: one repeat-rich genome + index for all filter tests.
class FilterTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig config;
        config.length = 120'000;
        config.seed = 11;
        reference_ = new Reference(simulate_genome(config));
        fm_ = new FmIndex(*reference_, 4);
    }
    static void TearDownTestSuite() {
        delete fm_;
        delete reference_;
        fm_ = nullptr;
        reference_ = nullptr;
    }

    static std::vector<std::uint8_t> sample_read(Xoshiro256& rng,
                                                 std::size_t n) {
        const std::size_t pos = rng.bounded(reference_->size() - n);
        return reference_->sequence().extract(pos, n);
    }

    /// A reference read with `subs` random substitutions: k-mers that
    /// cover one usually occur nowhere, so zero-frequency seeds (the
    /// DP's `best == 0` exit) and cost ties both turn up.
    static std::vector<std::uint8_t> mutated_read(Xoshiro256& rng,
                                                  std::size_t n,
                                                  std::uint32_t subs) {
        auto read = sample_read(rng, n);
        for (std::uint32_t k = 0; k < subs; ++k) {
            auto& base = read[rng.bounded(n)];
            base = static_cast<std::uint8_t>((base + 1 + rng.bounded(3)) & 3);
        }
        return read;
    }

    static void check_partition(const SeedPlan& plan, std::size_t n,
                                std::uint32_t delta, std::uint32_t s_min) {
        ASSERT_EQ(plan.seeds.size(), delta + 1);
        std::uint32_t expected_start = 0;
        for (const auto& seed : plan.seeds) {
            EXPECT_EQ(seed.start, expected_start);
            EXPECT_GE(seed.length, s_min);
            expected_start += seed.length;
        }
        EXPECT_EQ(expected_start, n);
    }

    static Reference* reference_;
    static FmIndex* fm_;
};

Reference* FilterTest::reference_ = nullptr;
FmIndex* FilterTest::fm_ = nullptr;

// --------------------------------------------------- partition contracts

class SeederContractTest
    : public FilterTest,
      public ::testing::WithParamInterface<int> {};

std::unique_ptr<Seeder> make_seeder(int kind, std::uint32_t s_min) {
    switch (kind) {
        case 0: return std::make_unique<UniformSeeder>(s_min);
        case 1: return std::make_unique<HeuristicSeeder>(s_min);
        case 2: return std::make_unique<OptimalSeeder>(s_min);
        default: return std::make_unique<MemoryOptimizedSeeder>(s_min);
    }
}

TEST_P(SeederContractTest, PartitionCoversReadWithMinLengths) {
    Xoshiro256 rng(100 + GetParam());
    for (const std::size_t n : {100u, 150u}) {
        for (const std::uint32_t delta : {3u, 5u, 7u}) {
            const std::uint32_t s_min = 12;
            if ((delta + 1) * s_min > n) continue;
            const auto seeder = make_seeder(GetParam(), s_min);
            for (int trial = 0; trial < 10; ++trial) {
                const auto read = sample_read(rng, n);
                const auto plan = seeder->select(*fm_, read, delta);
                check_partition(plan, n, delta, s_min);
                // total_candidates is the sum of the seed range counts.
                std::uint64_t sum = 0;
                for (const auto& s : plan.seeds) sum += s.range.count();
                EXPECT_EQ(plan.total_candidates, sum);
            }
        }
    }
}

TEST_P(SeederContractTest, RejectsImpossibleParameters) {
    const auto seeder = make_seeder(GetParam(), 20);
    const std::vector<std::uint8_t> read(100, 1);
    // 6 seeds x 20 = 120 > 100.
    EXPECT_THROW((void)seeder->select(*fm_, read, 5),
                 std::invalid_argument);
}

TEST_P(SeederContractTest, ScratchBoundIsPositive) {
    const auto seeder = make_seeder(GetParam(), 12);
    EXPECT_GT(seeder->scratch_bound(100, 5), 0u);
}

TEST_P(SeederContractTest, ScratchBytesWithinScratchBound) {
    // scratch_bound sizes the kernel's static private memory
    // (kernel_scratch_bytes), so no read may need more than it.
    Xoshiro256 rng(200 + GetParam());
    for (const std::size_t n : {100u, 125u, 150u}) {
        for (std::uint32_t delta = 0; delta <= 7; ++delta) {
            for (const std::uint32_t s_min : {10u, 12u, 14u, 16u, 20u}) {
                if ((delta + 1) * s_min > n) continue;
                const auto seeder = make_seeder(GetParam(), s_min);
                const auto bound = seeder->scratch_bound(n, delta);
                for (const std::uint32_t subs : {0u, 3u}) {
                    const auto read = mutated_read(rng, n, subs);
                    const auto plan = seeder->select(*fm_, read, delta);
                    EXPECT_LE(plan.scratch_bytes, bound)
                        << seeder->name() << " n=" << n
                        << " delta=" << delta << " s_min=" << s_min;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSeeders, SeederContractTest,
                         ::testing::Values(0, 1, 2, 3));

// ------------------------------------ memory-optimized == full OSS

TEST_F(FilterTest, MemoptMatchesFullOssOnRandomReads) {
    struct Cell {
        std::size_t n;
        std::uint32_t delta;
        std::uint32_t s_min;
    };
    std::vector<Cell> cells;
    for (const std::uint32_t s_min : {10u, 12u, 14u, 16u}) {
        for (const std::size_t n : {100u, 125u, 150u}) {
            for (std::uint32_t delta = 0; delta <= 7; ++delta) {
                if ((delta + 1) * s_min <= n) {
                    cells.push_back({n, delta, s_min});
                }
            }
        }
    }
    // E = n - (delta+1)*s_min: one window cell per iteration (E = 0), and
    // windows narrower than a seed (0 < E < s_min) that leave ends no
    // iteration examines.
    cells.push_back({100, 4, 20});
    cells.push_back({125, 4, 25});
    cells.push_back({125, 7, 14});
    cells.push_back({100, 3, 22});

    Xoshiro256 rng(77);
    std::uint64_t zero_seeds = 0;
    for (const auto& [n, delta, s_min] : cells) {
        const OptimalSeeder full(s_min);
        const MemoryOptimizedSeeder memopt(s_min);
        for (int trial = 0; trial < 12; ++trial) {
            SCOPED_TRACE("n=" + std::to_string(n) + " delta=" +
                         std::to_string(delta) + " s_min=" +
                         std::to_string(s_min) + " trial " +
                         std::to_string(trial));
            const auto read =
                mutated_read(rng, n, static_cast<std::uint32_t>(trial % 4));
            const auto a = full.select(*fm_, read, delta);
            const auto b = memopt.select(*fm_, read, delta);
            ASSERT_EQ(a.seeds.size(), b.seeds.size());
            for (std::size_t s = 0; s < a.seeds.size(); ++s) {
                EXPECT_EQ(a.seeds[s].start, b.seeds[s].start);
                EXPECT_EQ(a.seeds[s].length, b.seeds[s].length);
                EXPECT_EQ(a.seeds[s].range, b.seeds[s].range);
                if (b.seeds[s].range.empty()) ++zero_seeds;
            }
            EXPECT_EQ(a.total_candidates, b.total_candidates);
            // Every memopt scan is a suffix of the OSS scan at the same
            // end, and memopt scans a subset of the ends.
            EXPECT_LE(b.fm_extends, a.fm_extends);
            EXPECT_LE(b.qgram_jumps, a.qgram_jumps);
        }
    }
    EXPECT_GT(zero_seeds, 0u);
}

TEST_F(FilterTest, MemoptUsesLessScratchThanFullOss) {
    const OptimalSeeder full(12);
    const MemoryOptimizedSeeder memopt(12);
    for (const std::size_t n : {100u, 150u}) {
        for (const std::uint32_t delta : {3u, 5u, 7u}) {
            EXPECT_LT(memopt.scratch_bound(n, delta),
                      full.scratch_bound(n, delta))
                << "n=" << n << " delta=" << delta;
        }
    }
}

// ---------------------------------------------- optimality (brute force)

TEST_F(FilterTest, DpIsOptimalAgainstBruteForceEnumeration) {
    // Short reads keep the brute-force partition count manageable.
    Xoshiro256 rng(31);
    const std::uint32_t s_min = 8;
    const std::uint32_t delta = 2; // 3 seeds
    const std::size_t n = 36;
    const MemoryOptimizedSeeder seeder(s_min);

    for (int trial = 0; trial < 20; ++trial) {
        const auto read = sample_read(rng, n);
        const auto plan = seeder.select(*fm_, read, delta);

        // Enumerate all (d1, d2) with seeds >= s_min.
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        FrequencyScanner scanner(*fm_, read);
        for (std::uint32_t d1 = s_min; d1 + 2 * s_min <= n; ++d1) {
            for (std::uint32_t d2 = d1 + s_min; d2 + s_min <= n; ++d2) {
                const std::uint64_t total =
                    scanner.frequency(0, d1) + scanner.frequency(d1, d2) +
                    scanner.frequency(d2, static_cast<std::uint32_t>(n));
                best = std::min(best, total);
            }
        }
        EXPECT_EQ(plan.total_candidates, best) << "trial " << trial;
    }
}

TEST_F(FilterTest, DpNeverWorseThanUniformOrHeuristic) {
    Xoshiro256 rng(53);
    const std::uint32_t s_min = 12;
    const MemoryOptimizedSeeder dp(s_min);
    const UniformSeeder uniform(s_min);
    const HeuristicSeeder heuristic(s_min);
    for (int trial = 0; trial < 30; ++trial) {
        const auto read = sample_read(rng, 100);
        const std::uint32_t delta = 3 + trial % 3;
        const auto dp_plan = dp.select(*fm_, read, delta);
        EXPECT_LE(dp_plan.total_candidates,
                  uniform.select(*fm_, read, delta).total_candidates);
        EXPECT_LE(dp_plan.total_candidates,
                  heuristic.select(*fm_, read, delta).total_candidates);
    }
}

// --------------------------------------------------- frequency scanner

TEST_F(FilterTest, SuffixFrequenciesMatchDirectSearch) {
    Xoshiro256 rng(41);
    const auto read = sample_read(rng, 80);
    FrequencyScanner scanner(*fm_, read);

    const std::uint32_t end = 60;
    const std::uint32_t min_start = 20;
    std::vector<std::uint32_t> freqs(end - min_start);
    scanner.suffix_frequencies(min_start, end, freqs);

    for (std::uint32_t d = min_start; d < end; ++d) {
        const auto direct = fm_->search(
            std::span(read).subspan(d, end - d));
        EXPECT_EQ(freqs[d - min_start], direct.count()) << "d=" << d;
    }
}

TEST_F(FilterTest, FrequencyShortCircuitsOnEmptyRange) {
    // A read full of the same base eventually has zero-frequency long
    // k-mers only if the genome lacks such runs; either way the scanner
    // must agree with direct search and never crash.
    std::vector<std::uint8_t> read(64, 2);
    FrequencyScanner scanner(*fm_, read);
    std::uint64_t extends = 0;
    const auto f = scanner.frequency(0, 64, &extends);
    EXPECT_EQ(f, fm_->search(read).count());
    EXPECT_LE(extends, 64u);
}

// -------------------------------------------------------- candidates

TEST_F(FilterTest, CandidatesContainTrueOriginForExactReads) {
    Xoshiro256 rng(67);
    const MemoryOptimizedSeeder seeder(12);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 100;
        const std::size_t pos = rng.bounded(reference_->size() - n);
        const auto read = reference_->sequence().extract(pos, n);
        const auto plan = seeder.select(*fm_, read, 5);
        const auto cands = gather_candidates(
            *fm_, plan, static_cast<std::uint32_t>(n), 5, {});
        // The true position must be within merge radius of a candidate.
        bool found = false;
        for (const auto c : cands.positions) {
            if (c <= pos + 5 && pos <= c + 5) found = true;
        }
        EXPECT_TRUE(found) << "true pos " << pos;
    }
}

TEST_F(FilterTest, CandidatesAreSortedAndDeduped) {
    Xoshiro256 rng(71);
    const UniformSeeder seeder(10);
    const auto read = sample_read(rng, 100);
    const auto plan = seeder.select(*fm_, read, 4);
    const auto cands = gather_candidates(*fm_, plan, 100, 4, {});
    for (std::size_t i = 1; i < cands.positions.size(); ++i) {
        EXPECT_GT(cands.positions[i], cands.positions[i - 1] + 4);
    }
}

TEST_F(FilterTest, MaxHitsPerSeedCapsLocates) {
    Xoshiro256 rng(73);
    const UniformSeeder seeder(10);
    const auto read = sample_read(rng, 100);
    const auto plan = seeder.select(*fm_, read, 4);
    repute::filter::CandidateConfig config;
    config.max_hits_per_seed = 2;
    const auto cands = gather_candidates(*fm_, plan, 100, 4, config);
    EXPECT_LE(cands.located_hits, 2u * plan.seeds.size());
}

TEST_F(FilterTest, JumpTablePathMatchesPlainBackwardSearch) {
    // The q-gram jump table is a pure fast path: every seeder must
    // produce the same partition, ranges, and candidate totals whether
    // the index carries a table (default q=8) or none at all (q=0) —
    // only the extends-vs-jumps accounting split may differ.
    const FmIndex no_jump(*reference_, 4, 128, /*qgram_length=*/0);
    ASSERT_NE(fm_->qgrams(), nullptr);
    ASSERT_EQ(no_jump.qgrams(), nullptr);

    const MemoryOptimizedSeeder memopt(12);
    const OptimalSeeder optimal(12);
    const UniformSeeder uniform(10);
    const Seeder* seeders[] = {&memopt, &optimal, &uniform};

    Xoshiro256 rng(2468);
    for (int trial = 0; trial < 10; ++trial) {
        const auto read = sample_read(rng, 80 + rng.bounded(120));
        const std::uint32_t delta = 2 + rng.bounded(4);
        for (const Seeder* s : seeders) {
            SCOPED_TRACE(std::string(s->name()) + " trial " +
                         std::to_string(trial));
            const SeedPlan with = s->select(*fm_, read, delta);
            const SeedPlan without = s->select(no_jump, read, delta);
            ASSERT_EQ(with.seeds.size(), without.seeds.size());
            for (std::size_t i = 0; i < with.seeds.size(); ++i) {
                EXPECT_EQ(with.seeds[i].start, without.seeds[i].start);
                EXPECT_EQ(with.seeds[i].length, without.seeds[i].length);
                EXPECT_EQ(with.seeds[i].range.count(),
                          without.seeds[i].range.count());
                if (!with.seeds[i].range.empty()) {
                    EXPECT_EQ(with.seeds[i].range, without.seeds[i].range);
                }
            }
            EXPECT_EQ(with.total_candidates, without.total_candidates);
            EXPECT_EQ(with.dp_cells, without.dp_cells);
            EXPECT_GT(with.qgram_jumps, 0u);
            EXPECT_EQ(without.qgram_jumps, 0u);
            EXPECT_LT(with.fm_extends, without.fm_extends);
        }
    }
}

// ------------------------------------------ pigeonhole zero certificate

std::vector<std::uint8_t> reverse_complement(
    std::span<const std::uint8_t> codes) {
    std::vector<std::uint8_t> rc(codes.rbegin(), codes.rend());
    for (auto& c : rc) c = repute::util::complement_code(c);
    return rc;
}

std::vector<std::uint8_t> random_read(Xoshiro256& rng, std::size_t n) {
    std::vector<std::uint8_t> read(n);
    for (auto& c : read) c = static_cast<std::uint8_t>(rng.bounded(4));
    return read;
}

TEST_F(FilterTest, ZeroCertificateHoldsIffDpOptimumIsZero) {
    // The certificate must fire on exactly the strands whose DP optimum
    // is 0 — on the fixture index, the same text without a jump table,
    // and every shard index of a 4-shard plan (each shard maps every
    // read against its own slice, where most strands have no seed).
    const FmIndex no_jump(*reference_, 4, 128, /*qgram_length=*/0);
    const std::string text = reference_->sequence().to_string();
    std::vector<repute::genomics::FastaRecord> records;
    for (std::size_t c = 0; c < 8; ++c) {
        const std::size_t lo = c * text.size() / 8;
        const std::size_t hi = (c + 1) * text.size() / 8;
        records.push_back({"c" + std::to_string(c), text.substr(lo, hi - lo)});
    }
    const repute::genomics::MultiReference multi(records);
    repute::index::ShardPlanConfig plan_config;
    plan_config.shard_count = 4;
    const auto shard_plan = repute::index::plan_shards(multi, plan_config);
    ASSERT_EQ(shard_plan.shards.size(), 4u);
    std::vector<std::unique_ptr<Reference>> shard_texts;
    std::vector<std::unique_ptr<FmIndex>> shard_fms;
    for (const auto& spec : shard_plan.shards) {
        const auto codes = multi.concatenated().sequence().extract(
            spec.text_offset(), spec.text_length());
        shard_texts.push_back(std::make_unique<Reference>(
            "shard", repute::util::PackedDna{
                         std::span<const std::uint8_t>(codes)}));
        shard_fms.push_back(std::make_unique<FmIndex>(*shard_texts.back(), 4));
    }
    std::vector<std::pair<std::string, const FmIndex*>> indexes = {
        {"monolithic", fm_}, {"no-jump", &no_jump}};
    for (std::size_t s = 0; s < shard_fms.size(); ++s) {
        indexes.emplace_back("shard " + std::to_string(s),
                             shard_fms[s].get());
    }

    // Both strands of exact, substituted and random reads.
    Xoshiro256 rng(4242);
    std::vector<std::vector<std::uint8_t>> reads;
    for (int i = 0; i < 20; ++i) {
        const std::size_t n = 100 + rng.bounded(51);
        auto read = i % 5 == 4 ? random_read(rng, n)
                               : mutated_read(rng, n,
                                              static_cast<std::uint32_t>(
                                                  rng.bounded(9)));
        reads.push_back(reverse_complement(read));
        reads.push_back(std::move(read));
    }

    SeedPlan plan;
    SeedScratch scratch;
    for (const auto& [name, fm] : indexes) {
        std::size_t certified = 0, refuted = 0;
        std::uint64_t cert_work = 0, dp_work = 0;
        for (std::uint32_t s_min = 10; s_min <= 16; ++s_min) {
            const MemoryOptimizedSeeder memopt(s_min);
            for (std::uint32_t delta = 0; delta <= 7; ++delta) {
                for (std::size_t r = 0; r < reads.size(); ++r) {
                    const auto& read = reads[r];
                    if ((delta + 1) * s_min > read.size()) continue;
                    memopt.select(*fm, read, delta, plan, scratch);
                    ScanWork work;
                    const bool holds = zero_certificate(
                        *fm, read, delta, s_min, work);
                    ASSERT_EQ(holds, plan.total_candidates == 0)
                        << name << " s_min=" << s_min << " delta=" << delta
                        << " read " << r << " optimum "
                        << plan.total_candidates;
                    if (fm->qgrams() == nullptr) {
                        EXPECT_EQ(work.qgram_jumps, 0u);
                    }
                    if (holds) {
                        ++certified;
                        cert_work += work.fm_extends + work.qgram_jumps;
                        dp_work += plan.fm_extends + plan.qgram_jumps;
                    } else {
                        ++refuted;
                    }
                }
            }
        }
        // Both verdicts occur on every index, and a certificate costs
        // far fewer scan steps than the DP that reaches the same zero.
        EXPECT_GT(certified, 0u) << name;
        EXPECT_GT(refuted, 0u) << name;
        EXPECT_LT(cert_work * 2, dp_work) << name;
    }
}

TEST(ZeroCertificate, JumpTableDeeperThanSminKeepsTheTightSplit) {
    // On a two-letter text most q-grams holding G or T are absent, so
    // empty jump ranges are common. With the table deeper than s_min
    // (q = 5, s_min 3 and 4) the certificate must still find seeds of
    // exactly s_min bases: reads of (delta+1) * s_min bases leave no
    // slack for a longer one.
    std::string text(20'000, 'A');
    Xoshiro256 rng(8);
    for (auto& c : text) c = rng.chance(0.5) ? 'A' : 'C';
    const Reference genome = Reference::from_ascii("ac", text);
    const FmIndex fm(genome, 4);
    ASSERT_NE(fm.qgrams(), nullptr);

    SeedPlan plan;
    SeedScratch scratch;
    std::size_t certified = 0, refuted = 0;
    for (const std::uint32_t s_min : {3u, 4u}) {
        ASSERT_GT(fm.qgrams()->q(), s_min);
        const MemoryOptimizedSeeder memopt(s_min);
        for (int trial = 0; trial < 300; ++trial) {
            const auto delta = static_cast<std::uint32_t>(rng.bounded(6));
            std::vector<std::uint8_t> read(
                (delta + 1) * s_min + rng.bounded(3));
            // Mostly A/C, with a G or T about every 8 bases.
            for (auto& c : read) {
                c = static_cast<std::uint8_t>(rng.chance(0.12)
                                                  ? 2 + rng.bounded(2)
                                                  : rng.bounded(2));
            }
            memopt.select(fm, read, delta, plan, scratch);
            ScanWork work;
            const bool holds = zero_certificate(fm, read, delta, s_min, work);
            ASSERT_EQ(holds, plan.total_candidates == 0)
                << "s_min=" << s_min << " delta=" << delta << " trial "
                << trial;
            ++(holds ? certified : refuted);
        }
    }
    EXPECT_GT(certified, 50u);
    EXPECT_GT(refuted, 50u);
}

/// Smallest edit distance between `read` and any substring of `text`:
/// the plain semi-global DP, O(|read| * |text|), no shortcuts.
std::uint32_t best_substring_distance(std::span<const std::uint8_t> read,
                                      std::span<const std::uint8_t> text) {
    const std::size_t m = read.size();
    std::vector<std::uint32_t> col(m + 1);
    for (std::size_t i = 0; i <= m; ++i) {
        col[i] = static_cast<std::uint32_t>(i);
    }
    std::uint32_t best = col[m];
    for (const std::uint8_t t : text) {
        std::uint32_t diag = col[0];
        col[0] = 0; // a substring may start anywhere
        for (std::size_t i = 1; i <= m; ++i) {
            const std::uint32_t up = col[i];
            col[i] = std::min({diag + (read[i - 1] != t ? 1u : 0u), up + 1,
                               col[i - 1] + 1});
            diag = up;
        }
        best = std::min(best, col[m]);
    }
    return best;
}

TEST(ZeroCertificate, SoundAgainstBruteForceScan) {
    // A certified strand has no locus within delta edits anywhere in
    // the text. Near-miss reads (delta+1 substitutions, one per
    // pigeonhole block) push the check right up to the boundary.
    GenomeSimConfig config;
    config.length = 24'000;
    config.seed = 5;
    config.interspersed_fraction = 0.5;
    config.repeat_divergence = 0.025;
    const Reference genome = simulate_genome(config);
    const FmIndex fm(genome, 4);
    const auto text = genome.sequence().extract(0, genome.size());
    const std::uint32_t s_min = 12;

    Xoshiro256 rng(99);
    std::size_t certified = 0, near_misses = 0;
    for (int i = 0; i < 40; ++i) {
        const std::size_t n = 100 + rng.bounded(51);
        const auto delta = static_cast<std::uint32_t>(2 + rng.bounded(6));
        auto read = genome.sequence().extract(
            rng.bounded(genome.size() - n), n);
        const std::uint32_t edits = delta + 1 - (i % 3 == 0 ? 1 : 0);
        for (std::uint32_t e = 0; e < edits; ++e) {
            const std::size_t block = n / edits;
            auto& base = read[e * block + rng.bounded(block)];
            base = static_cast<std::uint8_t>((base + 1 + rng.bounded(3)) & 3);
        }
        for (const auto& strand : {read, reverse_complement(read)}) {
            ScanWork work;
            if (!zero_certificate(fm, strand, delta, s_min, work)) {
                continue;
            }
            ++certified;
            const std::uint32_t distance =
                best_substring_distance(strand, text);
            EXPECT_GT(distance, delta) << "read " << i;
            if (distance <= delta + 2) ++near_misses;
        }
    }
    EXPECT_GT(certified, 40u);
    EXPECT_GT(near_misses, 5u);
}

// ------------------------------------------------- text-anchored scans

/// The bounds of one suffix_frequencies call.
struct ScanCell {
    std::uint32_t min_start;
    std::uint32_t end;
    std::uint32_t min_length;
};

/// Runs one scanner over `cells` in order (its text anchor carries
/// from call to call) and checks every reported count against a
/// direct search.
void expect_scans_match_search(const FmIndex& fm,
                               std::span<const std::uint8_t> read,
                               const std::vector<ScanCell>& cells,
                               ScanWork& work, const std::string& what) {
    FrequencyScanner scanner(fm, read);
    std::vector<std::uint32_t> out;
    for (const auto& [min_start, end, min_length] : cells) {
        out.assign(end - min_start, 0xDEADu);
        scanner.suffix_frequencies(min_start, end, out, work, min_length);
        for (std::uint32_t d = min_start; d + min_length <= end; ++d) {
            ASSERT_EQ(out[d - min_start],
                      fm.search(read.subspan(d, end - d)).count())
                << what << " d=" << d << " end=" << end
                << " min_start=" << min_start
                << " min_length=" << min_length;
        }
    }
}

/// Three call orders: every end ascending at full depth (the OSS
/// scan), ascending under a sliding lower bound with seeds of at least
/// 12 bases (the memopt DP's), and shuffled ends with random bounds
/// (the anchor must re-check itself or drop out).
std::vector<std::vector<ScanCell>> scan_orders(std::uint32_t n,
                                               Xoshiro256& rng) {
    std::vector<ScanCell> full, sliding, shuffled;
    for (std::uint32_t end = 1; end <= n; ++end) {
        full.push_back({0, end, 1});
        if (end >= 12) sliding.push_back({end > 40 ? end - 40 : 0, end, 12});
        shuffled.push_back({static_cast<std::uint32_t>(rng.bounded(end)), end,
                            1 + static_cast<std::uint32_t>(rng.bounded(16))});
    }
    for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.bounded(i)]);
    }
    return {full, sliding, shuffled};
}

/// Repeat-rich text: interspersed repeats plus tandem arrays of every
/// period from 1 to 12, so one-row ranges sit next to deep ones.
Reference tandem_rich_genome() {
    GenomeSimConfig config;
    config.length = 48'000;
    config.seed = 23;
    config.interspersed_fraction = 0.5;
    config.repeat_divergence = 0.02;
    config.tandem_fraction = 0.15;
    config.tandem_motif_min = 1;
    config.tandem_motif_max = 12;
    return simulate_genome(config);
}

TEST(AnchoredScan, CountsMatchSearchOnEveryCellMonolithicAndSharded) {
    const Reference genome = tandem_rich_genome();
    const std::string text = genome.sequence().to_string();
    std::vector<repute::genomics::FastaRecord> records;
    for (std::size_t c = 0; c < 8; ++c) {
        const std::size_t lo = c * text.size() / 8;
        const std::size_t hi = (c + 1) * text.size() / 8;
        records.push_back({"c" + std::to_string(c), text.substr(lo, hi - lo)});
    }
    const repute::genomics::MultiReference multi(records);
    const auto& combined = multi.concatenated().sequence();
    const FmIndex mono(multi.concatenated(), 4);
    repute::index::ShardPlanConfig plan_config;
    plan_config.shard_count = 4;
    const auto shard_plan = repute::index::plan_shards(multi, plan_config);
    ASSERT_EQ(shard_plan.shards.size(), 4u);
    std::vector<std::unique_ptr<Reference>> shard_texts;
    std::vector<std::unique_ptr<FmIndex>> shard_fms;
    for (const auto& spec : shard_plan.shards) {
        const auto codes =
            combined.extract(spec.text_offset(), spec.text_length());
        shard_texts.push_back(std::make_unique<Reference>(
            "shard", repute::util::PackedDna{
                         std::span<const std::uint8_t>(codes)}));
        shard_fms.push_back(
            std::make_unique<FmIndex>(*shard_texts.back(), 4));
    }

    Xoshiro256 rng(3131);
    const std::uint32_t n = 90;
    const auto sample = [&](const repute::util::PackedDna& from) {
        return from.extract(rng.bounded(from.size() - n), n);
    };
    // Exact, substituted and random reads of the combined text, both
    // strands, plus pure tandem reads of periods 1..12.
    std::vector<std::vector<std::uint8_t>> reads;
    for (int i = 0; i < 6; ++i) {
        auto read = sample(combined);
        for (int s = 0; s < i % 3; ++s) {
            auto& base = read[rng.bounded(n)];
            base = static_cast<std::uint8_t>((base + 1 + rng.bounded(3)) & 3);
        }
        reads.push_back(reverse_complement(read));
        reads.push_back(std::move(read));
    }
    reads.push_back(random_read(rng, n));
    for (const std::uint32_t period : {1u, 2u, 5u, 12u}) {
        const auto motif = random_read(rng, period);
        std::vector<std::uint8_t> read(n);
        for (std::uint32_t i = 0; i < n; ++i) read[i] = motif[i % period];
        reads.push_back(std::move(read));
    }

    std::vector<std::pair<std::string, const FmIndex*>> indexes = {
        {"monolithic", &mono}};
    for (std::size_t s = 0; s < shard_fms.size(); ++s) {
        indexes.emplace_back("shard " + std::to_string(s),
                             shard_fms[s].get());
    }
    ScanWork work;
    for (const auto& [name, fm] : indexes) {
        // Each index also gets reads from its own text, so every shard
        // sees one-row ranges, not only absent seeds.
        auto own = reads;
        own.push_back(sample(fm->text()));
        own.push_back(reverse_complement(own.back()));
        for (std::size_t r = 0; r < own.size(); ++r) {
            const auto orders = scan_orders(n, rng);
            for (std::size_t o = 0; o < orders.size(); ++o) {
                expect_scans_match_search(
                    *fm, own[r], orders[o], work,
                    name + " read " + std::to_string(r) + " order " +
                        std::to_string(o));
                if (HasFatalFailure()) return;
            }
        }
    }
    // The text settled counts on this fixture, not only the FM index.
    EXPECT_GT(work.anchor_locates, 0u);
    EXPECT_GT(work.text_settled, 0u);
    EXPECT_GT(work.text_words, 0u);
}

TEST(AnchoredScan, TextBoundariesJoinsAndShardEdges) {
    const Reference genome = tandem_rich_genome();
    const std::string text = genome.sequence().to_string();
    // Two contigs: the join sits at the text's midpoint.
    const std::size_t join = text.size() / 2;
    const repute::genomics::MultiReference multi(
        std::vector<repute::genomics::FastaRecord>{
            {"left", text.substr(0, join)}, {"right", text.substr(join)}});
    const auto& combined = multi.concatenated().sequence();
    const FmIndex mono(multi.concatenated(), 4);
    repute::index::ShardPlanConfig plan_config;
    plan_config.shard_count = 2;
    plan_config.overlap = 300;
    const auto shard_plan = repute::index::plan_shards(multi, plan_config);
    ASSERT_EQ(shard_plan.shards.size(), 2u);
    const auto& right_spec = shard_plan.shards[1];
    const auto right_codes = combined.extract(right_spec.text_offset(),
                                              right_spec.text_length());
    const Reference right_text(
        "shard1",
        repute::util::PackedDna{std::span<const std::uint8_t>(right_codes)});
    const FmIndex right_fm(right_text, 4);

    Xoshiro256 rng(77);
    const std::uint32_t n = 120;
    const std::size_t size = combined.size();
    const auto cat = [](std::vector<std::uint8_t> a,
                        const std::vector<std::uint8_t>& b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    struct Case {
        std::string what;
        const FmIndex* fm;
        std::vector<std::uint8_t> read;
    };
    const std::vector<Case> cases = {
        // Occurrence at text position 0, and one whose left extension
        // would run off the text start.
        {"text prefix", &mono, combined.extract(0, n)},
        {"runs off the start", &mono,
         cat(random_read(rng, 7), combined.extract(0, n - 7))},
        // A read equal to a text suffix, and one that runs off the end
        // (the anchor carried to the next end must see the text end).
        {"text suffix", &mono, combined.extract(size - n, n)},
        {"runs off the end", &mono,
         cat(combined.extract(size - n + 9, n - 9), random_read(rng, 9))},
        // Suffixes that span the contig join.
        {"across the join", &mono, combined.extract(join - n / 2, n)},
        {"join, mutated", &mono,
         cat(combined.extract(join - n / 2, n / 2),
             cat(random_read(rng, 1),
                 combined.extract(join + 1, n / 2 - 1)))},
        // The right shard's overhang edge: its local text starts with
        // the left overhang, and a read that straddles that edge occurs
        // in the combined text but only partly in the shard.
        {"shard text start", &right_fm, right_text.sequence().extract(0, n)},
        {"straddles shard start", &right_fm,
         combined.extract(right_spec.text_offset() - n / 3, n)},
        {"shard text end", &right_fm,
         right_text.sequence().extract(right_text.size() - n, n)},
    };
    ScanWork work;
    for (const Case& c : cases) {
        ASSERT_EQ(c.read.size(), n) << c.what;
        for (const auto& order : scan_orders(n, rng)) {
            expect_scans_match_search(*c.fm, c.read, order, work, c.what);
            if (HasFatalFailure()) return;
        }
        // The certificate's anchored scans agree with the DP's zero.
        SeedPlan plan;
        SeedScratch scratch;
        const MemoryOptimizedSeeder memopt(12);
        for (const std::uint32_t delta : {0u, 3u, 7u}) {
            memopt.select(*c.fm, c.read, delta, plan, scratch);
            ScanWork cert;
            EXPECT_EQ(zero_certificate(*c.fm, c.read, delta, 12, cert),
                      plan.total_candidates == 0)
                << c.what << " delta=" << delta;
        }
    }
    EXPECT_GT(work.anchor_locates, 0u);
    EXPECT_GT(work.text_settled, 0u);
}

TEST_F(FilterTest, ExplorationSpaceFormula) {
    EXPECT_EQ(MemoryOptimizedSeeder::exploration_space(100, 4, 10), 50u);
    EXPECT_EQ(MemoryOptimizedSeeder::exploration_space(150, 5, 22), 18u);
    EXPECT_EQ(MemoryOptimizedSeeder::exploration_space(100, 4, 20), 0u);
}

} // namespace
