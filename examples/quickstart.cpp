// Quickstart: simulate a genome, index it, map reads with REPUTE, and
// write SAM. This touches the whole public API in ~60 lines:
//
//   genomics -> simulate_genome / simulate_reads
//   index    -> FmIndex
//   core     -> make_repute, MapResult
//   ocl      -> Platform / devices
//   pipeline -> SamEmitter
//
// Build & run:   ./examples/quickstart [--reads N] [--genome BP]

#include <cstdio>
#include <sstream>

#include "core/report.hpp"
#include "core/repute_mapper.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "pipeline/sam_emitter.hpp"
#include "util/args.hpp"

using namespace repute;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);

    // 1. A reference genome. (Real FASTA input: see examples/map_fastq.)
    genomics::GenomeSimConfig gconfig;
    gconfig.length =
        static_cast<std::size_t>(args.get_int("genome", 1'000'000));
    const auto reference = genomics::simulate_genome(gconfig);
    std::printf("reference %s: %zu bp\n", reference.name().c_str(),
                reference.size());

    // 2. The FM-index (suffix array sampled every 4 positions).
    const index::FmIndex fm(reference, 4);
    std::printf("FM-index: %.1f MB\n",
                static_cast<double>(fm.memory_bytes()) / 1e6);

    // 3. Reads with up to 5 errors each.
    genomics::ReadSimConfig rconfig;
    rconfig.n_reads =
        static_cast<std::size_t>(args.get_int("reads", 1000));
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    const auto sim = genomics::simulate_reads(reference, rconfig);

    // 4. REPUTE on the workstation CPU device, delta = 5.
    auto platform = ocl::Platform::system1();
    core::HeterogeneousMapperConfig config;
    config.kernel.s_min = 14;
    auto mapper = core::make_repute(reference, fm,
                                    {{&platform.device("i7-2600"), 1.0}},
                                    config);
    const auto result = mapper->map(sim.batch, /*delta=*/5);

    std::printf("%s", core::format_map_report(sim.batch, result).c_str());

    // 5. SAM output: header plus the first few reads' records.
    const genomics::MultiReference multi(reference);
    std::ostringstream out;
    pipeline::SamEmitter emitter(out, multi, {true, 5});
    emitter.write_header();
    for (std::size_t i = 0; i < 5 && i < sim.batch.size(); ++i) {
        out << emitter.render_read(sim.batch, i, result);
    }
    std::printf("--- first SAM records ---\n%s", out.str().c_str());
    return 0;
}
