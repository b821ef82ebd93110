// Heterogeneous mapping (paper §III-B): the same read set mapped on the
// CPU alone, then split across CPU + both GPUs — showing the device
// runs, the bottleneck device, and the speedup from task parallelism.

#include <cstdio>

#include "core/kernels.hpp"
#include "core/repute_mapper.hpp"
#include "core/tuner.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "util/args.hpp"

using namespace repute;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const std::uint32_t delta =
        static_cast<std::uint32_t>(args.get_int("delta", 5));
    const std::uint32_t s_min =
        static_cast<std::uint32_t>(args.get_int("smin", 22));

    genomics::GenomeSimConfig gconfig;
    gconfig.length =
        static_cast<std::size_t>(args.get_int("genome", 2'000'000));
    const auto reference = genomics::simulate_genome(gconfig);
    const index::FmIndex fm(reference, 4);

    genomics::ReadSimConfig rconfig;
    rconfig.n_reads =
        static_cast<std::size_t>(args.get_int("reads", 2000));
    rconfig.read_length = 150;
    rconfig.max_errors = delta;
    const auto sim = genomics::simulate_reads(reference, rconfig);

    auto platform = ocl::Platform::system1();
    auto& cpu = platform.device("i7-2600");
    auto& gpu0 = platform.device("gtx590-0");
    auto& gpu1 = platform.device("gtx590-1");

    // CPU only. All kernel knobs, s_min included, travel in the config.
    core::HeterogeneousMapperConfig config;
    config.kernel.s_min = s_min;
    auto cpu_mapper =
        core::make_repute(reference, fm, {{&cpu, 1.0}}, config);
    const auto cpu_result = cpu_mapper->map(sim.batch, delta);
    std::printf("REPUTE-cpu:  %.4f s modeled\n",
                cpu_result.mapping_seconds);

    // CPU + 2 GPUs, shares balanced by occupancy-adjusted throughput.
    const filter::MemoryOptimizedSeeder probe(s_min);
    const auto scratch = core::kernel_scratch_bytes(
        probe, rconfig.read_length, delta);
    auto shares = core::balanced_shares({&cpu, &gpu0, &gpu1}, scratch);
    std::printf("kernel scratch/work-item: %llu B; GPU occupancy %.2f\n",
                static_cast<unsigned long long>(scratch),
                gpu0.utilization_for_scratch(scratch));

    auto all_mapper =
        core::make_repute(reference, fm, std::move(shares), config);
    const auto all_result = all_mapper->map(sim.batch, delta);
    std::printf("REPUTE-all:  %.4f s modeled (%.2fx speedup)\n",
                all_result.mapping_seconds,
                cpu_result.mapping_seconds / all_result.mapping_seconds);

    for (const auto& run : all_result.device_runs) {
        std::printf("  %-10s %6zu reads  %.4f s  (util %.2f)\n",
                    run.device_name.c_str(), run.stats.items,
                    run.stats.seconds, run.stats.utilization);
    }

    // Auto-tuned split: probe each device on a read slice and solve for
    // finish-together shares (the "judicious distribution" of Fig. 3).
    const auto tuned = core::tune_shares(reference, fm, sim.batch, delta,
                                         s_min, {&cpu, &gpu0, &gpu1});
    auto tuned_mapper =
        core::make_repute(reference, fm, tuned.shares, config);
    const auto tuned_result = tuned_mapper->map(sim.batch, delta);
    std::printf("REPUTE-tuned: %.4f s modeled (predicted %.4f s)\n",
                tuned_result.mapping_seconds, tuned.predicted_seconds);
    std::printf("bottleneck = slowest device; see Fig. 3 for the cost "
                "of a bad split\n");

    // Dynamic work stealing: the tuned shares become a warm start, and
    // idle devices steal queued chunks instead of waiting on a
    // mispredicted split (survives a device dying mid-batch, too).
    core::HeterogeneousMapperConfig dyn = config;
    dyn.schedule = core::ScheduleMode::Dynamic;
    auto dyn_mapper =
        core::make_repute(reference, fm, tuned.shares, dyn);
    const auto dyn_result = dyn_mapper->map(sim.batch, delta);
    std::printf("REPUTE-dynamic: %.4f s modeled (%zu chunks, %zu steals, "
                "%zu retries)\n",
                dyn_result.mapping_seconds, dyn_result.schedule->chunks,
                dyn_result.schedule->steals, dyn_result.schedule->retries);
    for (const auto& dev : dyn_result.schedule->per_device) {
        std::printf("  %-10s %6zu reads in %zu chunks  %.4f s busy\n",
                    dev.device_name.c_str(), dev.items, dev.chunks,
                    dev.busy_seconds);
    }
    return 0;
}
