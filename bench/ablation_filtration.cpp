// Ablation: filtration strategies (DESIGN.md §5).
//
// Sweeps the four seeders over s_min and reports, per read: filtration
// work (FM extensions + DP cells), candidate locations before and after
// diagonal dedup, and the static kernel scratch bound. This isolates
// the two claims behind REPUTE's design:
//   1. DP seed selection produces fewer candidates than greedy/naive
//      partitions (quality);
//   2. the bounded exploration space cuts the scratch footprint vs the
//      full OSS at identical output (memory), and scanning only the
//      window's prefix ends, each once, cuts the FM work too (time).
//
// Exits non-zero when oss-full and repute-dp disagree on the candidate
// count: their partitions must be identical.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "filter/candidates.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "filter/optimal_seeder.hpp"
#include "filter/uniform_seeder.hpp"

using namespace repute;
using namespace repute::bench;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const ScopedTrace trace(args);
    WorkloadConfig config = parse_workload_config(args);
    // Filtration-only sweep: a smaller read set suffices.
    config.n_reads = std::min<std::size_t>(config.n_reads, 1500);
    const auto workload = make_workload(config);

    const std::size_t n = 150;
    const std::uint32_t delta = 6;
    const auto& reads = workload.reads(n).batch.reads;

    std::printf("\n== Ablation: filtration strategies "
                "(n=%zu, delta=%u, %zu reads) ==\n",
                n, delta, reads.size());
    std::printf("%-12s %6s | %12s %10s | %11s %11s | %10s\n", "seeder",
                "s_min", "extends/read", "cells/read", "cand/read",
                "dedup/read", "scratch(B)");

    bool agree = true;
    for (const std::uint32_t s_min : {12u, 16u, 20u}) {
        if ((delta + 1) * s_min > n) continue;
        std::vector<std::unique_ptr<filter::Seeder>> seeders;
        seeders.push_back(std::make_unique<filter::UniformSeeder>(s_min));
        seeders.push_back(
            std::make_unique<filter::HeuristicSeeder>(s_min));
        seeders.push_back(std::make_unique<filter::OptimalSeeder>(s_min));
        seeders.push_back(
            std::make_unique<filter::MemoryOptimizedSeeder>(s_min));

        std::uint64_t oss_cands = 0;
        for (const auto& seeder : seeders) {
            std::uint64_t extends = 0, cells = 0, cands = 0, dedup = 0;
            for (const auto& read : reads) {
                const auto plan = seeder->select(workload.fm(),
                                                 read.codes, delta);
                extends += plan.fm_extends;
                cells += plan.dp_cells;
                cands += plan.total_candidates;
                const auto set = filter::gather_candidates(
                    workload.fm(), plan, static_cast<std::uint32_t>(n),
                    delta, {});
                dedup += set.positions.size();
            }
            const auto count = static_cast<double>(reads.size());
            std::printf("%-12s %6u | %12.0f %10.0f | %11.1f %11.1f | "
                        "%10llu\n",
                        std::string(seeder->name()).c_str(), s_min,
                        static_cast<double>(extends) / count,
                        static_cast<double>(cells) / count,
                        static_cast<double>(cands) / count,
                        static_cast<double>(dedup) / count,
                        static_cast<unsigned long long>(
                            seeder->scratch_bound(n, delta)));
            if (seeder->name() == "oss-full") oss_cands = cands;
            if (seeder->name() == "repute-dp" && cands != oss_cands) {
                std::fprintf(stderr,
                             "ablation_filtration: repute-dp found %llu "
                             "candidates, oss-full %llu (s_min %u)\n",
                             static_cast<unsigned long long>(cands),
                             static_cast<unsigned long long>(oss_cands),
                             s_min);
                agree = false;
            }
        }
        std::printf("\n");
    }
    std::printf("note: oss-full and repute-dp must agree on cand/read "
                "(identical partitions); repute-dp's scratch is the "
                "paper's memory optimization.\n");
    return agree ? 0 : 1;
}
