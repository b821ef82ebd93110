// Zero-allocation steady state: after one warm-up pass has sized every
// KernelScratch buffer, repeated map_read_workitem calls must not touch
// the heap at all — the host-side contract mirroring statically budgeted
// OpenCL private memory. Enforced with counting overrides of the global
// allocation functions, so this suite lives in its own binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/kernels.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "obs/trace.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
    ++g_allocations;
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}
} // namespace

void* operator new(std::size_t size) {
    return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
    return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

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

TEST(KernelScratch, SteadyStateKernelDoesNotAllocate) {
    GenomeSimConfig gconfig;
    gconfig.length = 100'000;
    gconfig.seed = 17;
    const Reference reference = simulate_genome(gconfig);
    const FmIndex fm(reference, 4);
    ReadSimConfig rconfig;
    rconfig.n_reads = 100;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    const auto sim = simulate_reads(reference, rconfig);

    const repute::filter::MemoryOptimizedSeeder repute_seeder(12);
    const repute::filter::HeuristicSeeder coral_seeder;
    // The lane-batched verification path defers Myers scans through the
    // staging arena / job / decision buffers — the zero-allocation
    // contract must hold with it on (the default) and off.
    KernelConfig simd_on;
    simd_on.simd_verification = true;
    KernelConfig simd_off;
    simd_off.simd_verification = false;
    // No metrics registry is installed in this binary: the registry's
    // name lookups allocate and would (correctly) fail the assertion —
    // production mappers hoist counter handles, tested elsewhere.
    ASSERT_EQ(repute::obs::metrics(), nullptr);

    for (const auto* seeder :
         {static_cast<const repute::filter::Seeder*>(&repute_seeder),
          static_cast<const repute::filter::Seeder*>(&coral_seeder)}) {
        for (const auto& config : {simd_on, simd_off}) {
            const char* simd_tag =
                config.simd_verification ? "simd-on" : "simd-off";
            KernelScratch scratch;
            std::vector<ReadMapping> out;
            StageTotals stages;
            std::uint64_t warm_ops = 0;
            for (const auto& read : sim.batch.reads) {
                warm_ops += map_read_workitem(fm, reference, *seeder,
                                              read, 5, config, out,
                                              scratch, &stages);
            }
            ASSERT_TRUE(scratch.warm);
            if (config.simd_verification) {
                // The deferred staging path (arena + jobs + decisions +
                // bucket tables) must actually run here; whether jobs
                // land in full batches or the scalar tail is workload-
                // dependent (full-batch engagement is pinned in
                // test_funnel).
                ASSERT_GT(stages.simd_lanes + stages.simd_tail, 0u)
                    << "deferred verification never engaged ("
                    << seeder->name() << ")";
            }

            const std::uint64_t before = g_allocations.load();
            std::uint64_t steady_ops = 0;
            for (const auto& read : sim.batch.reads) {
                steady_ops += map_read_workitem(fm, reference, *seeder,
                                                read, 5, config, out,
                                                scratch, &stages);
            }
            const std::uint64_t after = g_allocations.load();
            EXPECT_EQ(after - before, 0u)
                << (after - before)
                << " heap allocations in steady state ("
                << seeder->name() << ", " << simd_tag << ")";
            // Identical work both passes — the warm pass maps correctly
            // too.
            EXPECT_EQ(steady_ops, warm_ops)
                << seeder->name() << ", " << simd_tag;
        }
    }
}

TEST(KernelScratch, ColdScratchStillMapsCorrectly) {
    // The allocating convenience overload and a warm scratch must agree
    // read for read.
    GenomeSimConfig gconfig;
    gconfig.length = 50'000;
    gconfig.seed = 18;
    const Reference reference = simulate_genome(gconfig);
    const FmIndex fm(reference, 4);
    ReadSimConfig rconfig;
    rconfig.n_reads = 40;
    rconfig.read_length = 100;
    const auto sim = simulate_reads(reference, rconfig);

    const repute::filter::MemoryOptimizedSeeder seeder(12);
    const KernelConfig config;
    KernelScratch scratch;
    std::vector<ReadMapping> warm_out, cold_out;
    for (const auto& read : sim.batch.reads) {
        map_read_workitem(fm, reference, seeder, read, 4, config,
                          warm_out, scratch, nullptr);
        KernelScratch cold;
        map_read_workitem(fm, reference, seeder, read, 4, config,
                          cold_out, cold, nullptr);
        ASSERT_EQ(warm_out, cold_out) << "read " << read.id;
    }
}

} // namespace
