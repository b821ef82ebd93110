// map_fastq — the smallest end-to-end program over the public mapping
// API: a MappingSession built from FASTA, one map() request, SAM out.
//
//   map_fastq --reference ref.fa --reads reads.fastq [--delta 5]
//             [--smin 14] [--max-locations 100] [--out out.sam]
//             [--cigar true]
//
// The `repute` CLI (src/cli) is the same session and request with every
// knob exposed; both produce byte-identical SAM for the same settings.
//
// Multi-sequence FASTA references are supported (sequences are indexed
// as one concatenated text; mappings crossing a boundary are dropped
// and positions resolve back to per-sequence coordinates). Reads may
// have mixed lengths and may be gzipped. With --cigar (default) each
// mapping is re-aligned for a precise position and CIGAR string — the
// paper's announced SAM extension.
//
// Without --reference/--reads the example writes a small simulated
// dataset to the working directory first and then maps it, so it is
// runnable out of the box.

#include <cstdio>
#include <fstream>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "pipeline/mapping_api.hpp"
#include "util/args.hpp"

using namespace repute;

namespace {

void write_demo_inputs(const std::string& fasta_path,
                       const std::string& fastq_path) {
    genomics::GenomeSimConfig gconfig;
    gconfig.length = 1'000'000;
    const auto reference = genomics::simulate_genome(gconfig);
    {
        std::ofstream fa(fasta_path);
        genomics::write_fasta(
            fa, {{reference.name(), reference.sequence().to_string()}});
    }
    genomics::ReadSimConfig rconfig;
    rconfig.n_reads = 1000;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.quality_model = true; // Illumina-like quality ramp
    const auto sim = genomics::simulate_reads(reference, rconfig);
    std::ofstream fq(fastq_path);
    genomics::write_fastq(fq, genomics::to_fastq_records(sim));
    std::printf("wrote demo inputs: %s, %s\n", fasta_path.c_str(),
                fastq_path.c_str());
}

} // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    std::string fasta = args.get_string("reference", "");
    std::string fastq = args.get_string("reads", "");
    const std::string out_path = args.get_string("out", "out.sam");

    if (fasta.empty() || fastq.empty()) {
        fasta = "demo_reference.fa";
        fastq = "demo_reads.fastq";
        write_demo_inputs(fasta, fastq);
    }

    pipeline::SessionConfig config;
    config.s_min = static_cast<std::uint32_t>(args.get_int("smin", 14));
    config.max_locations =
        static_cast<std::uint32_t>(args.get_int("max-locations", 100));
    const auto session =
        pipeline::MappingSession::from_fasta(fasta, config);
    std::printf("reference: %zu sequence(s), %zu bp total; index built "
                "in %.1f s (%.1f MB)\n",
                session->multi().sequence_count(),
                session->multi().concatenated().size(),
                session->index_seconds(),
                static_cast<double>(session->resident_bytes()) / 1e6);

    std::ifstream reads(fastq, std::ios::binary);
    std::ofstream out(out_path, std::ios::binary);
    if (!reads || !out) {
        std::fprintf(stderr, "cannot open %s or %s\n", fastq.c_str(),
                     out_path.c_str());
        return 1;
    }
    pipeline::MapRequest request;
    request.reads = &reads;
    request.delta = static_cast<std::uint32_t>(args.get_int("delta", 5));
    request.cigar = args.get_bool("cigar", true);
    const auto response = session->map(request, out);
    std::printf("mapped %zu reads (%zu dropped) in %.1f s over %zu "
                "batch(es)\n",
                response.reads_in - response.dropped, response.dropped,
                response.wall_seconds, response.pipeline.units);
    std::printf("SAM written to %s (%zu records; %zu boundary-dropped, "
                "%zu cigar-dropped)\n",
                out_path.c_str(), response.emitted.records,
                response.emitted.dropped_boundary,
                response.emitted.dropped_cigar);
    return response.reads_in == response.dropped ? 1 : 0;
}
