// Paired-end mapping: simulate an FR library, map both mates with
// REPUTE, join into proper pairs, and demonstrate mate rescue.

#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "pipeline/sam_emitter.hpp"
#include "util/args.hpp"

using namespace repute;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const std::uint32_t delta =
        static_cast<std::uint32_t>(args.get_int("delta", 4));

    genomics::GenomeSimConfig gconfig;
    gconfig.length =
        static_cast<std::size_t>(args.get_int("genome", 2'000'000));
    const genomics::MultiReference multi(genomics::simulate_genome(gconfig));
    const genomics::Reference& reference = multi.concatenated();
    const index::FmIndex fm(reference, 4);

    genomics::PairSimConfig pconfig;
    pconfig.n_pairs =
        static_cast<std::size_t>(args.get_int("pairs", 2000));
    pconfig.read_length = 100;
    pconfig.max_errors = delta;
    pconfig.insert_mean = args.get_double("insert-mean", 350.0);
    pconfig.insert_stddev = args.get_double("insert-sd", 35.0);
    const auto sim = genomics::simulate_pairs(reference, pconfig);
    std::printf("simulated %zu pairs, insert ~N(%.0f, %.0f)\n",
                sim.first.size(), pconfig.insert_mean,
                pconfig.insert_stddev);

    auto platform = ocl::Platform::system1();
    core::HeterogeneousMapperConfig config;
    config.kernel.s_min = 14;
    auto mapper = core::make_repute(reference, fm,
                                    {{&platform.device("i7-2600"), 1.0}},
                                    config);

    core::PairedConfig pair_config;
    pair_config.min_insert = static_cast<std::uint32_t>(
        pconfig.insert_mean - 4 * pconfig.insert_stddev);
    pair_config.max_insert = static_cast<std::uint32_t>(
        pconfig.insert_mean + 4 * pconfig.insert_stddev);
    core::PairedMapper paired(*mapper, reference, pair_config);

    const auto result = paired.map_pairs(sim.first, sim.second, delta);
    std::printf("mapping: %.3f s modeled\n", result.mapping_seconds);
    std::printf("  proper pairs:      %zu\n",
                result.count(core::PairClass::Proper));
    std::printf("  rescued mates:     %zu\n",
                result.count(core::PairClass::Rescued));
    std::printf("  discordant:        %zu\n",
                result.count(core::PairClass::Discordant));
    std::printf("  one mate unmapped: %zu\n",
                result.count(core::PairClass::OneMateUnmapped));
    std::printf("  both unmapped:     %zu\n",
                result.count(core::PairClass::BothUnmapped));

    // Observed insert distribution of the proper pairs.
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (const auto& pair : result.pairs) {
        if (pair.classification != core::PairClass::Proper) continue;
        sum += pair.insert_size;
        sq += static_cast<double>(pair.insert_size) * pair.insert_size;
        ++n;
    }
    if (n > 0) {
        const double mean = sum / static_cast<double>(n);
        const double var = sq / static_cast<double>(n) - mean * mean;
        std::printf("observed insert: mean %.1f, sd %.1f (simulated "
                    "%.0f / %.0f)\n",
                    mean, var > 0 ? std::sqrt(var) : 0.0,
                    pconfig.insert_mean, pconfig.insert_stddev);
    }

    // SAM with pairing flags and TLEN (first pair's two records).
    std::ostringstream out;
    pipeline::SamEmitter emitter(out, multi, {true, delta});
    emitter.write_header();
    out << emitter.render_paired(sim.first, sim.second, result).front();
    std::printf("--- first pair in SAM ---\n%s", out.str().c_str());
    return 0;
}
