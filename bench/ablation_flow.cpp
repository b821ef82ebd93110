// Ablation: kernel flow — collapsed vs streaming verification
// (DESIGN.md §5, paper §I "the REPUTE kernel flow has been modified").
//
// Runs the SAME DP seeder under both flows so the effect of collapsing
// duplicate diagonals before verification is isolated from filtration
// quality, then adds CORAL (heuristic + streaming) for the combined
// picture. Reported per delta: verified windows per read, verification
// share of total ops, and modeled time.

#include <cstdio>

#include "bench_common.hpp"
#include "bench_mappers.hpp"
#include "core/kernels.hpp"

using namespace repute;
using namespace repute::bench;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const ScopedTrace trace(args);
    WorkloadConfig config = parse_workload_config(args);
    config.n_reads = std::min<std::size_t>(config.n_reads, 2000);
    const auto workload = make_workload(config);

    ocl::DeviceProfile profile;
    profile.name = "ablation-cpu";
    profile.compute_units = 8;
    profile.ops_per_unit_per_second = 1e9;
    profile.global_memory_bytes = 1ULL << 32;
    profile.private_memory_per_unit = 1 << 22;
    profile.dispatch_overhead_seconds = 0.0;
    ocl::Device device(profile);

    const std::size_t n = 150;
    std::printf("\n== Ablation: kernel flow (n=%zu, %zu reads) ==\n", n,
                workload.reads(n).batch.size());
    std::printf("%-26s %5s | %12s %12s %10s\n", "configuration", "delta",
                "windows/read", "verify-share", "T(s)");

    for (const std::uint32_t delta : {5u, 6u, 7u}) {
        const std::uint32_t s_min = best_s_min(n, delta);
        struct Variant {
            const char* label;
            bool dp;
            bool collapse;
        };
        const Variant variants[] = {
            {"REPUTE (DP + collapse)", true, true},
            {"DP + streaming", true, false},
            {"CORAL (greedy+streaming)", false, false},
        };
        for (const auto& v : variants) {
            core::HeterogeneousMapperConfig mapper_config;
            mapper_config.kernel.s_min = s_min;
            mapper_config.kernel.max_locations_per_read = 1000;
            mapper_config.kernel.collapse_candidates = v.collapse;
            std::unique_ptr<core::Mapper> mapper;
            if (v.dp) {
                mapper = core::make_repute(workload.reference(),
                                           workload.fm(),
                                           {{&device, 1.0}},
                                           mapper_config);
            } else {
                // make_coral forces streaming (v.collapse is false here
                // anyway).
                mapper = core::make_coral(workload.reference(),
                                          workload.fm(),
                                          {{&device, 1.0}},
                                          mapper_config);
            }
            const auto result =
                mapper->map(workload.reads(n).batch, delta);
            const auto& run = result.device_runs[0];
            const double per_read =
                static_cast<double>(run.stage.candidates) /
                static_cast<double>(run.stats.items);
            const double share =
                static_cast<double>(run.stage.verify_ops) /
                static_cast<double>(run.stats.total_ops);
            std::printf("%-26s %5u | %12.1f %11.0f%% %10.4f\n", v.label,
                        delta, per_read, share * 100,
                        result.mapping_seconds);
        }
        std::printf("\n");
    }
    std::printf("windows/read: verification invocations after (collapse) "
                "or without (streaming) diagonal dedup.\n");
    return 0;
}
