// Verification funnel: byte-identical mapping output with each funnel
// layer toggled off, the zero certificate's (layer 0) reach and error
// behavior, and the funnel metrics exported through the obs layer.

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

    const char* names[] = {"no-band", "no-coalesce", "no-simd", "all-off",
                           "all-off+simd"};
    KernelConfig configs[5];
    configs[0].banded_verification = false;
    configs[1].coalesce_windows = false;
    configs[2].simd_verification = false;
    configs[3].banded_verification = false;
    configs[3].coalesce_windows = false;
    configs[3].simd_verification = false;
    // simd left on without the band it batches: must be inert.
    configs[4].banded_verification = false;
    configs[4].coalesce_windows = false;

    for (int i = 0; i < 5; ++i) {
        std::vector<std::vector<ReadMapping>> toggled;
        map_all(configs[i], toggled);
        ASSERT_EQ(toggled.size(), full.size());
        for (std::size_t r = 0; r < full.size(); ++r) {
            ASSERT_EQ(toggled[r], full[r])
                << names[i] << " diverged on read " << r;
        }
    }
}

TEST_F(FunnelEquivalence, HeuristicSeederAgreesToo) {
    // CORAL's streaming flow (no diagonal collapse) feeds duplicated,
    // unsorted-by-diagonal windows through the funnel — equivalence
    // must hold there as well.
    repute::filter::HeuristicSeeder coral_seeder;
    KernelConfig full_config;
    full_config.collapse_candidates = false;
    KernelConfig off_config = full_config;
    off_config.banded_verification = false;
    off_config.coalesce_windows = false;

    KernelScratch scratch_a, scratch_b;
    std::vector<ReadMapping> out_a, out_b;
    for (const auto& read : sim_.batch.reads) {
        map_read_workitem(*fm_, reference_, coral_seeder, read, delta_,
                          full_config, out_a, scratch_a, nullptr);
        map_read_workitem(*fm_, reference_, coral_seeder, read, delta_,
                          off_config, out_b, scratch_b, nullptr);
        ASSERT_EQ(out_a, out_b) << "read " << read.id;
    }
}

TEST_F(FunnelEquivalence, CoralFlowWorkIsUnchanged) {
    // The zero certificate runs only in REPUTE's flow: CORAL's modeled
    // work on this fixture is pinned bit-for-bit, so layer 0 cannot
    // move it.
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
    EXPECT_EQ(total_ops, 529'789u);
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
    // Near-miss windows reach Myers and the banded scan must (a) bail
    // early on some of them and (b) report fewer verify ops than the
    // full-scan configuration.
    KernelConfig banded_only;
    StageTotals banded_stages;
    std::vector<std::vector<ReadMapping>> results;
    map_all(banded_only, results, &banded_stages);
    EXPECT_GT(banded_stages.myers_early_exits, 0u);

    KernelConfig none;
    none.banded_verification = false;
    none.coalesce_windows = false;
    StageTotals full_scan_stages;
    map_all(none, results, &full_scan_stages);
    EXPECT_LT(banded_stages.verify_ops, full_scan_stages.verify_ops)
        << "banded verification did not reduce modeled verify cost";
}

} // namespace
