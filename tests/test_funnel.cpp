// Verification funnel: mapping output equal to a reference verifier
// outside the kernel (every window through the unbanded scalar scan)
// and byte-identical with window coalescing off, the zero certificate's
// (layer 0) reach and error behavior, and the funnel metrics exported
// through the obs layer.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "obs/trace.hpp"
#include "reference_verifier.hpp"
#include "util/prng.hpp"

namespace {

using repute::core::KernelConfig;
using repute::core::KernelScratch;
using repute::core::map_read_workitem;
using repute::core::ReadMapping;
using repute::core::StageTotals;
using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::index::FmIndex;
using repute::oracle::reference_verify;
using repute::util::Xoshiro256;

std::vector<std::uint8_t> random_codes(Xoshiro256& rng, std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& c : out) c = static_cast<std::uint8_t>(rng.bounded(4));
    return out;
}

// ------------------------------------------- layer-off equivalence

class FunnelEquivalence : public ::testing::Test {
protected:
    void map_all(const KernelConfig& config,
                 std::vector<std::vector<ReadMapping>>& results,
                 StageTotals* stages = nullptr) {
        KernelScratch scratch;
        std::vector<ReadMapping> out;
        results.clear();
        for (const auto& read : sim_.batch.reads) {
            map_read_workitem(*fm_, reference_, seeder_, read, delta_,
                              config, out, scratch, stages);
            results.push_back(out);
        }
    }

    /// Maps every read with `config` and holds each result to the
    /// reference verifier; returns the reads whose output hit the
    /// first-n cap.
    std::size_t expect_reference(const KernelConfig& config,
                                 const repute::filter::Seeder& seeder) {
        KernelScratch scratch;
        std::vector<ReadMapping> out;
        std::size_t capped = 0;
        for (const auto& read : sim_.batch.reads) {
            map_read_workitem(*fm_, reference_, seeder, read, delta_,
                              config, out, scratch);
            EXPECT_EQ(out, reference_verify(*fm_, reference_, seeder, read,
                                            delta_, config))
                << seeder.name() << " diverged on read " << read.id;
            if (out.size() == config.max_locations_per_read) ++capped;
        }
        return capped;
    }

    void SetUp() override {
        GenomeSimConfig gconfig;
        gconfig.length = 80'000;
        gconfig.seed = 33;
        reference_ = simulate_genome(gconfig);
        fm_.emplace(reference_, 4);
        ReadSimConfig rconfig;
        rconfig.n_reads = 120;
        rconfig.read_length = 100;
        rconfig.max_errors = 5;
        sim_ = simulate_reads(reference_, rconfig);
    }

    Reference reference_;
    std::optional<FmIndex> fm_;
    repute::genomics::SimulatedReads sim_;
    repute::filter::MemoryOptimizedSeeder seeder_{12};
    std::uint32_t delta_ = 5;
};

TEST_F(FunnelEquivalence, EachLayerOffMatchesFullFunnel) {
    std::vector<std::vector<ReadMapping>> full;
    StageTotals stages;
    map_all(KernelConfig{}, full, &stages);
    // The funnel must actually engage on this workload. Each read comes
    // from one strand of the text; on the other, its seeds mostly miss
    // and the strand ends at layer 0.
    EXPECT_GT(stages.zero_certified, 0u);
    EXPECT_GT(stages.windows_coalesced, 0u);
    // Seed scans finish against the text once their range holds a row.
    EXPECT_GT(stages.anchor_locates, 0u);
    EXPECT_GT(stages.text_settled, 0u);

    // Both batch shapes run: full lane batches and partial ones at the
    // bucket tails.
    EXPECT_GT(stages.simd_batches, 0u);
    EXPECT_GT(stages.simd_tail, 0u);

    KernelConfig no_coalesce;
    no_coalesce.coalesce_windows = false;
    std::vector<std::vector<ReadMapping>> toggled;
    map_all(no_coalesce, toggled);
    ASSERT_EQ(toggled.size(), full.size());
    for (std::size_t r = 0; r < full.size(); ++r) {
        ASSERT_EQ(toggled[r], full[r]) << "no-coalesce diverged on read " << r;
    }
    // Both against the per-window scalar scan outside the kernel.
    expect_reference(KernelConfig{}, seeder_);
    expect_reference(no_coalesce, seeder_);
}

TEST_F(FunnelEquivalence, FirstNCapAndCoralFlowMatchReferenceVerifier) {
    // A binding first-n cap: the kernel defers every scan and replays
    // the results in candidate order, so the cap must cut at the very
    // window the per-window loop stops at, across both strands.
    KernelConfig capped;
    capped.max_locations_per_read = 3;
    EXPECT_GT(expect_reference(capped, seeder_), 0u)
        << "the cap never bound on this fixture";
    capped.coalesce_windows = false;
    expect_reference(capped, seeder_);

    // CORAL's streaming flow through REPUTE's DP seeder: uncollapsed,
    // duplicated diagonals reach verification.
    KernelConfig coral;
    coral.collapse_candidates = false;
    expect_reference(coral, seeder_);
    coral.max_locations_per_read = 3;
    expect_reference(coral, seeder_);
}

TEST_F(FunnelEquivalence, HeuristicSeederAgreesToo) {
    // CORAL's streaming flow (no diagonal collapse) feeds duplicated,
    // unsorted-by-diagonal windows through the funnel — equivalence
    // must hold there as well.
    repute::filter::HeuristicSeeder coral_seeder;
    KernelConfig config;
    config.collapse_candidates = false;
    expect_reference(config, coral_seeder);
    config.coalesce_windows = false;
    expect_reference(config, coral_seeder);
}

TEST_F(FunnelEquivalence, CoralFlowWorkIsUnchanged) {
    // The zero certificate runs only in REPUTE's flow: CORAL's modeled
    // work on this fixture is pinned bit-for-bit, so layer 0 cannot
    // move it. (Bucket tails run as partial lane batches, charged per
    // vector word-column; CORAL's duplicated windows fill them well.)
    repute::filter::HeuristicSeeder coral_seeder;
    KernelConfig config;
    config.collapse_candidates = false;
    KernelScratch scratch;
    std::vector<ReadMapping> out;
    StageTotals stages;
    std::uint64_t total_ops = 0;
    for (const auto& read : sim_.batch.reads) {
        total_ops += map_read_workitem(*fm_, reference_, coral_seeder, read,
                                       delta_, config, out, scratch, &stages);
    }
    EXPECT_EQ(total_ops, 480'486u);
    EXPECT_EQ(stages.zero_certified, 0u);
    EXPECT_EQ(stages.anchor_locates, 0u);
}

std::string error_of(const std::function<void()>& run) {
    try {
        run();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST_F(FunnelEquivalence, ZeroCertificateKeepsSeederErrors) {
    // Random reads are certifiable (no seed occurs anywhere), yet a
    // read the seeder rejects must still fail with the seeder's own
    // message: layer 0 runs only on valid read parameters.
    Xoshiro256 rng(5);
    for (const std::size_t n : {std::size_t{600}, std::size_t{60}}) {
        repute::genomics::Read read;
        read.codes = random_codes(rng, n);
        const std::string expected = error_of([&] {
            (void)seeder_.select(*fm_, read.codes, delta_);
        });
        ASSERT_FALSE(expected.empty()) << "n=" << n;
        KernelScratch scratch;
        std::vector<ReadMapping> out;
        EXPECT_EQ(error_of([&] {
                      map_read_workitem(*fm_, reference_, seeder_, read,
                                        delta_, KernelConfig{}, out,
                                        scratch);
                  }),
                  expected)
            << "n=" << n;
    }
}

// ------------------------------------------------------ funnel metrics

TEST_F(FunnelEquivalence, FunnelCountersExportThroughObs) {
    repute::obs::TraceSession session;
    std::vector<std::vector<ReadMapping>> results;
    map_all(KernelConfig{}, results);
    auto& reg = session.registry();
    EXPECT_GT(reg.counter("kernel.zero_certified_strands").value(), 0u);
    EXPECT_GT(reg.counter("kernel.anchor_locates").value(), 0u);
    EXPECT_GT(reg.counter("kernel.text_settled_suffixes").value(), 0u);
    EXPECT_GT(reg.counter("kernel.windows_coalesced").value(), 0u);
    // Early exits: present on this workload because rejected-by-Myers
    // windows abandon once the score bound proves the outcome.
    EXPECT_GE(reg.counter("kernel.myers_early_exits").value(), 0u);
    // The lane-batched path engages (full batches happen on this
    // workload) and its occupancy histogram carries per-read samples.
    EXPECT_GT(reg.counter("kernel.simd_batches").value(), 0u);
    EXPECT_GT(reg.histogram("kernel.simd_lane_occupancy").snapshot().count,
              0u);
}

TEST_F(FunnelEquivalence, EarlyExitAndCostAccountingEngage) {
    // Near-miss windows reach Myers and the banded scan must bail early
    // on some of them; the engine's column words are charged on top of
    // the per-candidate fetch cost.
    StageTotals stages;
    std::vector<std::vector<ReadMapping>> results;
    map_all(KernelConfig{}, results, &stages);
    EXPECT_GT(stages.myers_early_exits, 0u);
    const repute::core::OpWeights weights;
    EXPECT_GT(stages.verify_ops, stages.raw_hits * weights.per_candidate)
        << "no Myers work was charged to verification";
}

} // namespace
