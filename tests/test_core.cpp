// core: the REPUTE kernel and host end-to-end — simulated reads must be
// recovered at their true origins, first-n semantics, multi-device
// splits, memory-ceiling chunking, accuracy protocols, SAM export.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "core/kernels.hpp"
#include "core/mapping.hpp"
#include "core/report.hpp"
#include "core/repute_mapper.hpp"
#include "core/sharded_mapper.hpp"
#include "filter/memopt_seeder.hpp"
#include "filter/uniform_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "genomics/sam_lite.hpp"
#include "index/fm_index.hpp"
#include "obs/trace.hpp"
#include "ocl/platform.hpp"
#include "pipeline/sam_emitter.hpp"

namespace {

using repute::core::AccuracyConfig;
using repute::core::all_locations_accuracy;
using repute::core::any_best_accuracy;
using repute::core::contains_mapping;
using repute::core::DeviceShare;
using repute::core::KernelConfig;
using repute::core::make_coral;
using repute::core::make_repute;
using repute::core::make_sharded_repute;
using repute::core::MapResult;
using repute::core::ReadMapping;
using repute::core::ScheduleMode;
using repute::core::ShardView;
using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::SimulatedReads;
using repute::genomics::Strand;
using repute::index::FmIndex;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;

DeviceProfile fast_test_profile(const char* name = "test-cpu") {
    DeviceProfile p;
    p.name = name;
    p.compute_units = 8;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = 1ULL << 30;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 0.0;
    return p;
}

class CoreTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig gconfig;
        gconfig.length = 200'000;
        gconfig.seed = 21;
        reference_ = new Reference(simulate_genome(gconfig));
        fm_ = new FmIndex(*reference_, 4);

        ReadSimConfig rconfig;
        rconfig.n_reads = 250;
        rconfig.read_length = 100;
        rconfig.max_errors = 5;
        rconfig.seed = 500;
        sim_ = new SimulatedReads(simulate_reads(*reference_, rconfig));
    }
    static void TearDownTestSuite() {
        delete sim_;
        delete fm_;
        delete reference_;
        sim_ = nullptr;
        fm_ = nullptr;
        reference_ = nullptr;
    }

    /// Fraction of simulated reads whose true origin appears in the
    /// result (position within tolerance, matching strand).
    static double origin_recovery(const MapResult& result,
                                  std::uint32_t tolerance) {
        std::size_t recovered = 0;
        for (std::size_t i = 0; i < sim_->batch.size(); ++i) {
            ReadMapping truth;
            truth.position = sim_->origins[i].position;
            truth.strand = sim_->origins[i].strand;
            if (contains_mapping(result.per_read[i], truth, tolerance)) {
                ++recovered;
            }
        }
        return static_cast<double>(recovered) /
               static_cast<double>(sim_->batch.size());
    }

    static Reference* reference_;
    static FmIndex* fm_;
    static SimulatedReads* sim_;
};

Reference* CoreTest::reference_ = nullptr;
FmIndex* CoreTest::fm_ = nullptr;
SimulatedReads* CoreTest::sim_ = nullptr;

// -------------------------------------------------------------- kernels

TEST_F(CoreTest, WorkItemRecoversExactRead) {
    const repute::filter::MemoryOptimizedSeeder seeder(12);
    KernelConfig config;
    config.s_min = 12;
    std::vector<ReadMapping> out;

    repute::genomics::Read read;
    read.codes = reference_->sequence().extract(5000, 100);
    const auto ops = repute::core::map_read_workitem(
        *fm_, *reference_, seeder, read, 5, config, out);
    EXPECT_GT(ops, 0u);
    ASSERT_FALSE(out.empty());
    ReadMapping truth;
    truth.position = 5000;
    truth.strand = Strand::Forward;
    EXPECT_TRUE(contains_mapping(out, truth, 5));
    // The exact read must have a zero-distance mapping.
    bool zero = false;
    for (const auto& m : out) zero |= (m.edit_distance == 0);
    EXPECT_TRUE(zero);
}

TEST_F(CoreTest, WorkItemFindsReverseStrand) {
    const repute::filter::MemoryOptimizedSeeder seeder(12);
    KernelConfig config;
    std::vector<ReadMapping> out;

    repute::genomics::Read read;
    const auto fwd = reference_->sequence().extract(7000, 100);
    read.codes.assign(fwd.rbegin(), fwd.rend());
    for (auto& b : read.codes) b = repute::util::complement_code(b);

    repute::core::map_read_workitem(*fm_, *reference_, seeder, read, 4,
                                    config, out);
    ReadMapping truth;
    truth.position = 7000;
    truth.strand = Strand::Reverse;
    EXPECT_TRUE(contains_mapping(out, truth, 4));
}

TEST_F(CoreTest, ScratchGrowsAsSminShrinks) {
    const repute::filter::MemoryOptimizedSeeder tight(20);
    const repute::filter::MemoryOptimizedSeeder loose(10);
    EXPECT_LT(repute::core::kernel_scratch_bytes(tight, 150, 5),
              repute::core::kernel_scratch_bytes(loose, 150, 5));
}

// ---------------------------------------------------------- end-to-end

TEST_F(CoreTest, ReputeRecoversSimulatedOrigins) {
    Device dev(fast_test_profile());
    auto mapper = make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 5);
    EXPECT_GE(origin_recovery(result, 5), 0.99);
    EXPECT_GT(result.mapping_seconds, 0.0);
    ASSERT_EQ(result.device_runs.size(), 1u);
    EXPECT_EQ(result.device_runs[0].reads, sim_->batch.size());
}

TEST_F(CoreTest, CoralRecoversSimulatedOrigins) {
    Device dev(fast_test_profile());
    auto mapper = make_coral(*reference_, *fm_, {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 5);
    EXPECT_GE(origin_recovery(result, 5), 0.99);
}

TEST_F(CoreTest, FirstNCapRespected) {
    Device dev(fast_test_profile());
    repute::core::HeterogeneousMapperConfig config;
    config.kernel.max_locations_per_read = 3;
    auto mapper =
        make_repute(*reference_, *fm_, {{&dev, 1.0}}, config);
    const auto result = mapper->map(sim_->batch, 5);
    for (const auto& mappings : result.per_read) {
        EXPECT_LE(mappings.size(), 3u);
    }
}

TEST_F(CoreTest, MultiDeviceMatchesSingleDevice) {
    Device a(fast_test_profile("dev-a"));
    Device b(fast_test_profile("dev-b"));
    auto single = make_repute(*reference_, *fm_, {{&a, 1.0}});
    auto dual =
        make_repute(*reference_, *fm_, {{&a, 0.5}, {&b, 0.5}});

    const auto r1 = single->map(sim_->batch, 4);
    const auto r2 = dual->map(sim_->batch, 4);
    ASSERT_EQ(r1.per_read.size(), r2.per_read.size());
    for (std::size_t i = 0; i < r1.per_read.size(); ++i) {
        EXPECT_EQ(r1.per_read[i], r2.per_read[i]) << "read " << i;
    }
    ASSERT_EQ(r2.device_runs.size(), 2u);
    EXPECT_EQ(r2.device_runs[0].reads + r2.device_runs[1].reads,
              sim_->batch.size());
    // Task-parallel: total time is the max, not the sum.
    EXPECT_NEAR(r2.mapping_seconds,
                std::max(r2.device_runs[0].stats.seconds,
                         r2.device_runs[1].stats.seconds),
                1e-12);
}

TEST_F(CoreTest, WorkloadSplitProportions) {
    Device a(fast_test_profile("dev-a"));
    Device b(fast_test_profile("dev-b"));
    Device c(fast_test_profile("dev-c"));
    auto mapper = make_repute(*reference_, *fm_,
                              {{&a, 0.8}, {&b, 0.1}, {&c, 0.1}});
    const auto counts = mapper->split_workload(1'000'000);
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 800'000u);
    EXPECT_EQ(counts[1], 100'000u);
    EXPECT_EQ(counts[2], 100'000u);
    EXPECT_EQ(counts[0] + counts[1] + counts[2], 1'000'000u);
}

TEST_F(CoreTest, WorkloadSplitDropsZeroFractionShares) {
    Device a(fast_test_profile("dev-a"));
    Device b(fast_test_profile("dev-b"));
    auto mapper =
        make_repute(*reference_, *fm_, {{&a, 1.0}, {&b, 0.0}});
    const auto counts = mapper->split_workload(100);
    // The zero share never reaches the split: one device, all reads.
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0], 100u);
}

TEST_F(CoreTest, WorkloadSplitNormalizesFractions) {
    Device a(fast_test_profile("dev-a"));
    Device b(fast_test_profile("dev-b"));
    // 2:6 must behave exactly like 0.25:0.75.
    auto mapper = make_repute(*reference_, *fm_, {{&a, 2.0}, {&b, 6.0}});
    const auto counts = mapper->split_workload(100);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 25u);
    EXPECT_EQ(counts[1], 75u);
}

TEST_F(CoreTest, WorkloadSplitSingleShareTakesEverything) {
    Device a(fast_test_profile("dev-a"));
    auto mapper = make_repute(*reference_, *fm_, {{&a, 0.37}});
    const auto counts = mapper->split_workload(17);
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0], 17u);
}

TEST_F(CoreTest, WorkloadSplitSmallerThanFleetConservesTotal) {
    Device a(fast_test_profile("dev-a"));
    Device b(fast_test_profile("dev-b"));
    Device c(fast_test_profile("dev-c"));
    auto mapper = make_repute(*reference_, *fm_,
                              {{&a, 1.0}, {&b, 1.0}, {&c, 1.0}});
    const auto counts = mapper->split_workload(2);
    ASSERT_EQ(counts.size(), 3u);
    std::size_t sum = 0;
    for (const auto n : counts) {
        EXPECT_LE(n, 2u);
        sum += n;
    }
    EXPECT_EQ(sum, 2u);
    // And the degenerate zero-read split stays all-zero.
    const auto empty = mapper->split_workload(0);
    for (const auto n : empty) EXPECT_EQ(n, 0u);
}

TEST_F(CoreTest, TinyDeviceMemoryForcesChunkingWithSameResults) {
    Device big(fast_test_profile("big"));
    DeviceProfile tiny_profile = fast_test_profile("tiny");
    // With a 1000-location output cap, 250 reads need ~2 MB of output
    // buffer — beyond the quarter ceiling of a 4 MiB device, forcing
    // several kernel invocations; the index image (rank blocks + q-gram
    // table + reference, ~0.6 MB here) still fits the ceiling.
    tiny_profile.global_memory_bytes = 4 * 1024 * 1024;
    Device tiny(tiny_profile);

    repute::core::HeterogeneousMapperConfig config;
    config.kernel.max_locations_per_read = 1000;
    auto ref_mapper =
        make_repute(*reference_, *fm_, {{&big, 1.0}}, config);
    auto tiny_mapper =
        make_repute(*reference_, *fm_, {{&tiny, 1.0}}, config);
    const auto r1 = ref_mapper->map(sim_->batch, 4);
    const auto r2 = tiny_mapper->map(sim_->batch, 4);
    for (std::size_t i = 0; i < r1.per_read.size(); ++i) {
        ASSERT_EQ(r1.per_read[i], r2.per_read[i]) << "read " << i;
    }

    // The same tiny device on a two-shard plan, under both schedules:
    // the ceiling must split the work, and count the split, while the
    // output stays that of the big device.
    const std::string text = reference_->sequence().to_string();
    const auto length = static_cast<std::uint32_t>(text.size());
    const std::uint32_t mid = length / 2;
    const std::uint32_t overlap = 256; // >= read length + delta
    const Reference left =
        Reference::from_ascii("left", text.substr(0, mid + overlap));
    const Reference right =
        Reference::from_ascii("right", text.substr(mid - overlap));
    const FmIndex left_fm(left, 4);
    const FmIndex right_fm(right, 4);
    const std::vector<ShardView> plan{
        {&left, &left_fm, 0, 0, mid},
        {&right, &right_fm, mid - overlap, overlap,
         length - (mid - overlap)}};
    for (const ScheduleMode schedule :
         {ScheduleMode::StaticSplit, ScheduleMode::Dynamic}) {
        config.schedule = schedule;
        const auto expected = make_sharded_repute(plan, {{&big, 1.0}}, config)
                                  ->map(sim_->batch, 4);
        repute::obs::TraceSession session;
        const auto chunked = make_sharded_repute(plan, {{&tiny, 1.0}}, config)
                                 ->map(sim_->batch, 4);
        for (std::size_t i = 0; i < expected.per_read.size(); ++i) {
            ASSERT_EQ(expected.per_read[i], chunked.per_read[i])
                << "read " << i << ", dynamic "
                << (schedule == ScheduleMode::Dynamic);
        }
        const auto counters = session.registry().counter_values();
        ASSERT_TRUE(counters.count("mapper.buffer_ceiling_splits"));
        EXPECT_GT(counters.at("mapper.buffer_ceiling_splits"), 0u);
    }
}

TEST_F(CoreTest, RejectsNullOrEmptyShares) {
    EXPECT_THROW(
        make_repute(*reference_, *fm_, {{nullptr, 1.0}}),
        std::invalid_argument);
    EXPECT_THROW(make_repute(*reference_, *fm_, {}),
                 std::invalid_argument);
}

TEST_F(CoreTest, EmptyBatchYieldsEmptyResult) {
    Device dev(fast_test_profile());
    auto mapper = make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto result = mapper->map({}, 5);
    EXPECT_TRUE(result.per_read.empty());
    EXPECT_EQ(result.mapping_seconds, 0.0);
}

// ------------------------------------------------------------- accuracy

TEST_F(CoreTest, AccuracyProtocolsOnIdenticalResults) {
    Device dev(fast_test_profile());
    auto mapper = make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);
    AccuracyConfig config;
    config.position_tolerance = 4;
    EXPECT_DOUBLE_EQ(all_locations_accuracy(result, result, config),
                     100.0);
    EXPECT_DOUBLE_EQ(any_best_accuracy(result, result, config), 100.0);
}

TEST_F(CoreTest, AccuracyDropsWhenMappingsRemoved) {
    Device dev(fast_test_profile());
    auto mapper = make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto gold = mapper->map(sim_->batch, 4);
    MapResult crippled = gold;
    // Remove every mapping from half the reads.
    for (std::size_t i = 0; i < crippled.per_read.size(); i += 2) {
        crippled.per_read[i].clear();
    }
    AccuracyConfig config;
    config.position_tolerance = 4;
    EXPECT_LT(all_locations_accuracy(gold, crippled, config), 60.0);
    EXPECT_LT(any_best_accuracy(gold, crippled, config), 60.0);
    // Asymmetry: the crippled set as gold standard is fully covered.
    EXPECT_DOUBLE_EQ(all_locations_accuracy(crippled, gold, config),
                     100.0);
}

TEST_F(CoreTest, AccuracyRejectsSizeMismatch) {
    MapResult a, b;
    a.per_read.resize(3);
    b.per_read.resize(4);
    EXPECT_THROW((void)all_locations_accuracy(a, b, {}),
                 std::invalid_argument);
}

TEST(Accuracy, ContainsMappingToleranceEdges) {
    std::vector<ReadMapping> mappings;
    ReadMapping m;
    m.position = 100;
    m.strand = Strand::Forward;
    mappings.push_back(m);

    ReadMapping probe = m;
    probe.position = 105;
    EXPECT_TRUE(contains_mapping(mappings, probe, 5));
    probe.position = 106;
    EXPECT_FALSE(contains_mapping(mappings, probe, 5));
    probe.position = 95;
    EXPECT_TRUE(contains_mapping(mappings, probe, 5));
    probe.position = 100;
    probe.strand = Strand::Reverse;
    EXPECT_FALSE(contains_mapping(mappings, probe, 5));
}

TEST_F(CoreTest, StratifiedAccuracyPerErrorLevel) {
    Device dev(fast_test_profile());
    auto mapper = make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto gold = mapper->map(sim_->batch, 5);

    AccuracyConfig config;
    config.position_tolerance = 5;
    const auto strata =
        repute::core::stratified_any_best_accuracy(gold, gold, config, 5);
    ASSERT_EQ(strata.size(), 6u);
    bool any_stratum = false;
    for (const double a : strata) {
        if (a >= 0) {
            EXPECT_DOUBLE_EQ(a, 100.0); // self-comparison is perfect
            any_stratum = true;
        }
    }
    EXPECT_TRUE(any_stratum);

    // Remove all distance >= 3 mappings from the test set: strata 0-2
    // stay perfect, the damaged strata drop.
    MapResult crippled = gold;
    for (auto& mappings : crippled.per_read) {
        std::erase_if(mappings, [](const ReadMapping& m) {
            return m.edit_distance >= 3;
        });
    }
    const auto damaged = repute::core::stratified_any_best_accuracy(
        gold, crippled, config, 5);
    for (int e = 0; e <= 2; ++e) {
        if (damaged[static_cast<std::size_t>(e)] >= 0) {
            EXPECT_DOUBLE_EQ(damaged[static_cast<std::size_t>(e)], 100.0);
        }
    }
    bool high_stratum_damaged = false;
    for (int e = 3; e <= 5; ++e) {
        const double a = damaged[static_cast<std::size_t>(e)];
        if (a >= 0 && a < 100.0) high_stratum_damaged = true;
    }
    EXPECT_TRUE(high_stratum_damaged);
}

TEST_F(CoreTest, BalancedSharesFollowThroughputAndScratch) {
    DeviceProfile cpu_profile = fast_test_profile("share-cpu");
    cpu_profile.compute_units = 8;
    cpu_profile.ops_per_unit_per_second = 1e9;
    DeviceProfile gpu_profile = fast_test_profile("share-gpu");
    gpu_profile.compute_units = 256;
    gpu_profile.ops_per_unit_per_second = 19e6; // 4.9e9 aggregate
    gpu_profile.private_memory_per_unit = 8 * 1024;
    gpu_profile.min_resident_items = 4;
    Device cpu(cpu_profile), gpu(gpu_profile);

    // Small scratch: shares proportional to raw throughput.
    auto shares = repute::core::balanced_shares({&cpu, &gpu}, 1024);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_NEAR(shares[1].fraction / shares[0].fraction, 4.864 / 8.0,
                0.01);

    // Scratch at half occupancy: the GPU share halves.
    auto tight = repute::core::balanced_shares({&cpu, &gpu}, 4096);
    EXPECT_NEAR(tight[1].fraction / tight[0].fraction, 0.5 * 4.864 / 8.0,
                0.01);

    // Scratch beyond the GPU's private memory: GPU gets zero.
    auto over = repute::core::balanced_shares({&cpu, &gpu}, 16 * 1024);
    EXPECT_GT(over[0].fraction, 0.0);
    EXPECT_DOUBLE_EQ(over[1].fraction, 0.0);
}

TEST_F(CoreTest, FormatMapReportContainsKeyFacts) {
    Device dev(fast_test_profile());
    auto mapper = make_repute(*reference_, *fm_, {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);
    const auto report =
        repute::core::format_map_report(sim_->batch, result);
    EXPECT_NE(report.find("reads: 250"), std::string::npos) << report;
    EXPECT_NE(report.find("mappings/read:"), std::string::npos);
    EXPECT_NE(report.find(dev.name()), std::string::npos);
    EXPECT_NE(report.find("verify"), std::string::npos);
}

// ------------------------------------------------------------------ SAM

TEST_F(CoreTest, SamExportHasRecordPerMappingAndUnmappedReads) {
    Device dev(fast_test_profile());
    repute::core::HeterogeneousMapperConfig config;
    config.kernel.max_locations_per_read = 5;
    auto mapper =
        make_repute(*reference_, *fm_, {{&dev, 1.0}}, config);
    const auto result = mapper->map(sim_->batch, 3);
    const repute::genomics::MultiReference multi(*reference_);
    std::stringstream io;
    repute::pipeline::SamEmitter emitter(io, multi, {false, 3});
    emitter.emit(sim_->batch, result);
    const auto sam = repute::genomics::read_sam(io);

    std::size_t expected = 0;
    for (const auto& m : result.per_read) {
        expected += m.empty() ? 1 : m.size();
    }
    EXPECT_EQ(emitter.stats().dropped_boundary, 0u);
    EXPECT_EQ(sam.size(), expected);
    EXPECT_EQ(emitter.stats().records, expected);
    // One primary record per read; every other mapping is secondary.
    std::size_t primaries = 0;
    for (const auto& rec : sam) {
        if (!(rec.flag & repute::genomics::SamRecord::kFlagSecondary)) {
            ++primaries;
        }
        if (!rec.unmapped()) {
            EXPECT_EQ(rec.rname, reference_->name());
            EXPECT_GE(rec.pos, 1u);
            EXPECT_LE(rec.edit_distance, 3u);
        }
    }
    EXPECT_EQ(primaries, sim_->batch.size());
}

} // namespace
