// Dynamic work-stealing scheduler: chunk planning, stealing, fault
// injection (mid-batch death, persistent failure → quarantine, all
// devices dead → clean OclError, transient faults → bounded retries),
// and mapper-level equivalence of dynamic scheduling with the static
// single-device reference.

#include <gtest/gtest.h>

#include <atomic>

#include "core/repute_mapper.hpp"
#include "core/scheduler.hpp"
#include "core/tuner.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"

namespace {

using repute::core::ChunkRecord;
using repute::core::ChunkScheduler;
using repute::core::HeterogeneousMapperConfig;
using repute::core::MapResult;
using repute::core::ScheduleMode;
using repute::core::SchedulerConfig;
using repute::core::ScheduleStats;
using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::SimulatedReads;
using repute::index::FmIndex;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;
using repute::ocl::FaultPlan;
using repute::ocl::LaunchStats;
using repute::ocl::OclError;
using repute::ocl::OclStatus;

DeviceProfile profile(const char* name, std::uint32_t units,
                      double ops_per_unit) {
    DeviceProfile p;
    p.name = name;
    p.compute_units = units;
    p.ops_per_unit_per_second = ops_per_unit;
    p.global_memory_bytes = 1ULL << 30;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 1e-4;
    return p;
}

/// Runner that executes a fixed-cost body on the device and marks every
/// completed item, so coverage and exactly-once semantics are checkable.
struct CountingRunner {
    std::vector<std::atomic<std::uint32_t>> covered;

    explicit CountingRunner(std::size_t total) : covered(total) {}

    ChunkScheduler::ChunkRunner runner() {
        return [this](Device& device, std::size_t begin,
                      std::size_t count) -> LaunchStats {
            return device.execute(
                count,
                [this, begin](std::size_t i) {
                    covered[begin + i].fetch_add(1);
                    return std::uint64_t{1000};
                },
                64);
        };
    }

    void expect_each_item_once() const {
        for (std::size_t i = 0; i < covered.size(); ++i) {
            EXPECT_EQ(covered[i].load(), 1u) << "item " << i;
        }
    }
};

// ------------------------------------------------------------- planning

TEST(ChunkPlan, PartitionsTheBatchExactly) {
    Device a(profile("a", 4, 1e6)), b(profile("b", 4, 1e6));
    SchedulerConfig config;
    ChunkScheduler scheduler({&a, &b}, {0.7, 0.3}, config);
    const auto chunks = scheduler.plan(10'000);
    ASSERT_FALSE(chunks.empty());
    std::size_t expect_begin = 0;
    for (const ChunkRecord& c : chunks) {
        EXPECT_EQ(c.begin, expect_begin);
        EXPECT_GT(c.count, 0u);
        expect_begin += c.count;
    }
    EXPECT_EQ(expect_begin, 10'000u);
}

TEST(ChunkPlan, HonoursFixedChunkSizeAndCap) {
    Device a(profile("a", 4, 1e6));
    SchedulerConfig config;
    config.chunk_items = 128;
    ChunkScheduler scheduler({&a}, {}, config);
    for (const ChunkRecord& c : scheduler.plan(1000)) {
        EXPECT_LE(c.count, 128u);
    }

    SchedulerConfig capped;
    capped.max_chunk_items = 50;
    ChunkScheduler scheduler2({&a}, {}, capped);
    for (const ChunkRecord& c : scheduler2.plan(1000)) {
        EXPECT_LE(c.count, 50u);
    }
}

TEST(ChunkPlan, WarmStartCommitLeadsEachDeviceQueue) {
    Device a(profile("a", 4, 1e6)), b(profile("b", 4, 1e6));
    SchedulerConfig config;
    ChunkScheduler scheduler({&a, &b}, {0.5, 0.5}, config);
    const auto chunks = scheduler.plan(8000);
    // First chunk of each owner is the committed half of its share.
    std::size_t leads_seen = 0;
    for (std::size_t owner = 0; owner < 2; ++owner) {
        for (const ChunkRecord& c : chunks) {
            if (c.owner != owner) continue;
            EXPECT_EQ(c.count, 2000u); // 0.5 commit x 4000 share
            ++leads_seen;
            break;
        }
    }
    EXPECT_EQ(leads_seen, 2u);
}

TEST(ChunkScheduler, RejectsDegenerateInputs) {
    Device a(profile("a", 4, 1e6));
    EXPECT_THROW(ChunkScheduler({}, {}), std::invalid_argument);
    EXPECT_THROW(ChunkScheduler({nullptr}, {}), std::invalid_argument);
    EXPECT_THROW(ChunkScheduler({&a}, {1.0, 2.0}), std::invalid_argument);
}

// ------------------------------------------------- fault-free schedules

TEST(ChunkScheduler, RunsEveryItemExactlyOnce) {
    Device a(profile("a", 4, 1e6)), b(profile("b", 4, 2e6));
    ChunkScheduler scheduler({&a, &b}, {});
    CountingRunner work(5000);
    const ScheduleStats stats = scheduler.run(5000, work.runner());
    work.expect_each_item_once();
    EXPECT_EQ(stats.chunks, stats.records.size());
    EXPECT_EQ(stats.retries, 0u);
    std::size_t items = 0;
    for (const auto& d : stats.per_device) items += d.items;
    EXPECT_EQ(items, 5000u);
    EXPECT_GT(stats.makespan_seconds(), 0.0);
}

TEST(ChunkScheduler, EmptyRunIsANoOp) {
    Device a(profile("a", 4, 1e6));
    ChunkScheduler scheduler({&a}, {});
    CountingRunner work(1);
    const ScheduleStats stats = scheduler.run(0, work.runner());
    EXPECT_EQ(stats.chunks, 0u);
    EXPECT_EQ(stats.makespan_seconds(), 0.0);
}

TEST(ChunkScheduler, FastDeviceStealsFromSlowOne) {
    // Equal warm start, 8x speed gap: the fast device must take over
    // most of the slow device's queue.
    Device slow(profile("slow", 4, 1e6)), fast(profile("fast", 4, 8e6));
    ChunkScheduler scheduler({&slow, &fast}, {0.5, 0.5});
    CountingRunner work(8000);
    const ScheduleStats stats = scheduler.run(8000, work.runner());
    work.expect_each_item_once();
    EXPECT_GT(stats.steals, 0u);
    EXPECT_GT(stats.per_device[1].items, stats.per_device[0].items);
    // The modeled makespan beats the committed 50/50 static split,
    // where the slow device alone needs 4000 x 1000 ops / 4e6 ops/s.
    const double static_seconds = 4000.0 * 1000.0 / 4e6;
    EXPECT_LT(stats.makespan_seconds(), static_seconds);
}

TEST(ChunkScheduler, MakespanIsBusiestDevice) {
    Device a(profile("a", 4, 1e6)), b(profile("b", 4, 3e6));
    ChunkScheduler scheduler({&a, &b}, {});
    CountingRunner work(3000);
    const ScheduleStats stats = scheduler.run(3000, work.runner());
    EXPECT_DOUBLE_EQ(stats.makespan_seconds(),
                     std::max(stats.per_device[0].busy_seconds,
                              stats.per_device[1].busy_seconds));
}

// ------------------------------------------------------ fault handling

TEST(ChunkScheduler, MidBatchDeviceDeathRequeuesItsChunks) {
    Device healthy(profile("healthy", 4, 1e6));
    Device dying(profile("dying", 4, 1e6));
    FaultPlan plan;
    plan.fail_on_launch = 2; // one good launch, then dead
    plan.fail_forever = true;
    dying.inject_faults(plan);

    ChunkScheduler scheduler({&healthy, &dying}, {0.5, 0.5});
    CountingRunner work(4000);
    const ScheduleStats stats = scheduler.run(4000, work.runner());
    work.expect_each_item_once();
    EXPECT_GE(stats.retries, 1u);
    EXPECT_TRUE(stats.per_device[1].quarantined);
    EXPECT_GE(stats.per_device[1].failures, 1u);
    EXPECT_GE(stats.per_device[1].chunks, 1u); // mapped before dying
    EXPECT_GT(stats.per_device[0].items, stats.per_device[1].items);
    dying.clear_faults();
}

TEST(ChunkScheduler, PersistentlyFailingDeviceIsQuarantined) {
    Device good(profile("good", 4, 1e6));
    Device broken(profile("broken", 4, 1e6));
    FaultPlan plan;
    plan.fail_on_launch = 1;
    plan.fail_forever = true;
    plan.status = OclStatus::MemObjectAllocFail;
    broken.inject_faults(plan);

    SchedulerConfig config;
    config.quarantine_after = 2;
    ChunkScheduler scheduler({&good, &broken}, {}, config);
    CountingRunner work(2000);
    const ScheduleStats stats = scheduler.run(2000, work.runner());
    work.expect_each_item_once();
    EXPECT_TRUE(stats.per_device[1].quarantined);
    EXPECT_EQ(stats.per_device[1].chunks, 0u);
    EXPECT_GE(stats.per_device[1].failures, 2u);
    EXPECT_EQ(stats.per_device[0].items, 2000u);
    broken.clear_faults();
}

TEST(ChunkScheduler, AllDevicesFailingSurfacesCleanOclError) {
    Device a(profile("a", 4, 1e6)), b(profile("b", 4, 1e6));
    FaultPlan plan;
    plan.fail_on_launch = 1;
    plan.fail_forever = true;
    plan.status = OclStatus::OutOfResources;
    a.inject_faults(plan);
    b.inject_faults(plan);

    ChunkScheduler scheduler({&a, &b}, {});
    CountingRunner work(1000);
    try {
        scheduler.run(1000, work.runner());
        FAIL() << "expected OclError";
    } catch (const OclError& e) {
        EXPECT_EQ(e.status(), OclStatus::OutOfResources);
    }
    a.clear_faults();
    b.clear_faults();
}

TEST(ChunkScheduler, TransientFaultsAreRetriedWithinBounds) {
    Device flaky(profile("flaky", 4, 1e6));
    FaultPlan plan;
    plan.transient_rate = 0.25;
    plan.seed = 97; // deterministic schedule: single device, fixed plan
    flaky.inject_faults(plan);

    SchedulerConfig config;
    config.chunk_items = 100; // ~40 launches: the stream surely fires
    config.quarantine_after = 1000; // transient faults must not kill it
    config.max_chunk_retries = 20;
    ChunkScheduler scheduler({&flaky}, {}, config);
    CountingRunner work(4000);
    const ScheduleStats stats = scheduler.run(4000, work.runner());
    work.expect_each_item_once();
    EXPECT_GT(stats.retries, 0u);
    EXPECT_FALSE(stats.per_device[0].quarantined);
    flaky.clear_faults();
}

TEST(ChunkScheduler, ChunkOutOfRetriesFailsTheRun) {
    Device flaky(profile("flaky", 4, 1e6));
    FaultPlan plan;
    plan.transient_rate = 1.0;
    flaky.inject_faults(plan);

    SchedulerConfig config;
    config.max_chunk_retries = 2;
    config.quarantine_after = 1000;
    ChunkScheduler scheduler({&flaky}, {}, config);
    CountingRunner work(100);
    EXPECT_THROW(scheduler.run(100, work.runner()), OclError);
    flaky.clear_faults();
}

TEST(ChunkScheduler, NonOclExceptionsPropagateVerbatim) {
    Device a(profile("a", 4, 1e6));
    ChunkScheduler scheduler({&a}, {});
    EXPECT_THROW(scheduler.run(10,
                               [](Device&, std::size_t, std::size_t)
                                   -> LaunchStats {
                                   throw std::logic_error("kernel bug");
                               }),
                 std::logic_error);
}

// ------------------------------------------- mapper-level fault suite

class SchedulerMapperTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig gconfig;
        gconfig.length = 100'000;
        gconfig.seed = 43;
        reference_ = new Reference(simulate_genome(gconfig));
        fm_ = new FmIndex(*reference_, 4);
        ReadSimConfig rconfig;
        rconfig.n_reads = 500;
        rconfig.read_length = 100;
        rconfig.max_errors = 4;
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

    static MapResult reference_result() {
        Device dev(profile("ref", 8, 1e9));
        auto mapper = repute::core::make_repute(*reference_, *fm_,
                                                {{&dev, 1.0}});
        return mapper->map(sim_->batch, 4);
    }

    static void expect_identical(const MapResult& a, const MapResult& b) {
        ASSERT_EQ(a.per_read.size(), b.per_read.size());
        for (std::size_t i = 0; i < a.per_read.size(); ++i) {
            ASSERT_EQ(a.per_read[i], b.per_read[i]) << "read " << i;
        }
    }

    static Reference* reference_;
    static FmIndex* fm_;
    static SimulatedReads* sim_;
};

Reference* SchedulerMapperTest::reference_ = nullptr;
FmIndex* SchedulerMapperTest::fm_ = nullptr;
SimulatedReads* SchedulerMapperTest::sim_ = nullptr;

TEST_F(SchedulerMapperTest, DynamicMatchesStaticWithoutFaults) {
    Device a(profile("a", 8, 1e9)), b(profile("b", 4, 0.5e9));
    HeterogeneousMapperConfig config;
    config.schedule = ScheduleMode::Dynamic;
    auto mapper = repute::core::make_repute(
        *reference_, *fm_, {{&a, 0.6}, {&b, 0.4}}, config);
    const auto result = mapper->map(sim_->batch, 4);
    expect_identical(reference_result(), result);
    EXPECT_GT(result.schedule->chunks, 0u);
    EXPECT_EQ(result.schedule->retries, 0u);
    std::size_t reads = 0;
    for (const auto& run : result.device_runs) reads += run.stats.items;
    EXPECT_EQ(reads, sim_->batch.size());
}

TEST_F(SchedulerMapperTest, SkewedFleetSurvivesMidBatchDeviceFailure) {
    // The acceptance scenario: 1 fast GPU + 2 slow CPUs, one CPU dies
    // mid-batch; the batch must still complete with output identical to
    // the fault-free single-device run.
    DeviceProfile gpu = profile("fast-gpu", 16, 0.2e9);
    gpu.type = repute::ocl::DeviceType::Gpu;
    gpu.min_resident_items = 4;
    Device fast(gpu);
    Device cpu_a(profile("slow-cpu-a", 4, 0.2e9));
    Device cpu_b(profile("slow-cpu-b", 4, 0.2e9));

    FaultPlan plan;
    plan.fail_on_launch = 2; // first chunk lands, then the device dies
    plan.fail_forever = true;
    cpu_b.inject_faults(plan);

    HeterogeneousMapperConfig config;
    config.schedule = ScheduleMode::Dynamic;
    // Fine chunks so the dying device demonstrably pulls again mid-batch
    // (a failed launch barely advances its modeled clock, so it keeps
    // pulling — and failing — until quarantined).
    config.scheduler.chunk_items = 20;
    auto mapper = repute::core::make_repute(
        *reference_, *fm_,
        {{&fast, 1.0}, {&cpu_a, 1.0}, {&cpu_b, 1.0}}, config);
    const auto result = mapper->map(sim_->batch, 4);
    cpu_b.clear_faults();

    expect_identical(reference_result(), result);
    EXPECT_GE(result.schedule->retries, 1u);
    ASSERT_EQ(result.schedule->per_device.size(), 3u);
    EXPECT_TRUE(result.schedule->per_device[2].quarantined);
    EXPECT_GT(result.mapping_seconds, 0.0);
}

TEST_F(SchedulerMapperTest, AllDevicesDeadSurfacesOclError) {
    Device a(profile("a", 8, 1e9)), b(profile("b", 8, 1e9));
    FaultPlan plan;
    plan.fail_on_launch = 1;
    plan.fail_forever = true;
    a.inject_faults(plan);
    b.inject_faults(plan);

    HeterogeneousMapperConfig config;
    config.schedule = ScheduleMode::Dynamic;
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{&a, 1.0}, {&b, 1.0}},
                                            config);
    EXPECT_THROW(mapper->map(sim_->batch, 4), OclError);
    a.clear_faults();
    b.clear_faults();
}

TEST_F(SchedulerMapperTest, TransientFaultsStillMapEveryRead) {
    Device steady(profile("steady", 8, 1e9));
    Device flaky(profile("flaky", 8, 1e9));
    FaultPlan plan;
    plan.transient_rate = 0.3;
    plan.seed = 11;
    flaky.inject_faults(plan);

    HeterogeneousMapperConfig config;
    config.schedule = ScheduleMode::Dynamic;
    config.scheduler.quarantine_after = 1000;
    config.scheduler.max_chunk_retries = 20;
    auto mapper = repute::core::make_repute(
        *reference_, *fm_, {{&steady, 0.5}, {&flaky, 0.5}}, config);
    const auto result = mapper->map(sim_->batch, 4);
    flaky.clear_faults();
    expect_identical(reference_result(), result);
}

TEST_F(SchedulerMapperTest, IncapableDeviceDroppedFromFleet) {
    DeviceProfile cramped = profile("cramped", 8, 1e9);
    cramped.private_memory_per_unit = 64; // kernel scratch won't fit
    Device small(cramped);
    Device capable(profile("capable", 8, 1e9));

    HeterogeneousMapperConfig config;
    config.schedule = ScheduleMode::Dynamic;
    auto mapper = repute::core::make_repute(
        *reference_, *fm_, {{&small, 0.5}, {&capable, 0.5}}, config);
    const auto result = mapper->map(sim_->batch, 4);
    expect_identical(reference_result(), result);
    // Only the capable device participated.
    ASSERT_EQ(result.schedule->per_device.size(), 1u);
    EXPECT_EQ(result.schedule->per_device[0].device_name, "capable");
}

TEST_F(SchedulerMapperTest, TunedWarmStartDrivesDynamicSchedule) {
    Device a(profile("a", 8, 1e9)), b(profile("b", 8, 0.25e9));
    const auto tuned = repute::core::tune_shares(
        *reference_, *fm_, sim_->batch, 4, 12, {&a, &b});
    HeterogeneousMapperConfig config;
    config.schedule = ScheduleMode::Dynamic;
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            tuned.shares, config);
    const auto result = mapper->map(sim_->batch, 4);
    expect_identical(reference_result(), result);
    // Warm start ~4:1 → the fast device maps the bulk.
    EXPECT_GT(result.schedule->per_device[0].items,
              2 * result.schedule->per_device[1].items);
}

} // namespace
