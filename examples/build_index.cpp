// build_index — build the FM-index for a FASTA reference once and save
// it as a .rix container (index/rix.hpp), so repeated mapping runs mmap
// it instead of rebuilding. This is `repute index build` in miniature.
//
//   build_index --reference ref.fa --out ref.rix [--sa-sample 4]
//   repute map  --index ref.rix --reads r.fastq ...
//
// Without --reference a demo genome is generated, indexed, saved,
// reopened and sanity-checked, so the example runs standalone.

#include <cstdio>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "index/fm_index.hpp"
#include "index/rix.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace repute;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const std::string fasta = args.get_string("reference", "");
    const std::string out_path = args.get_string("out", "reference.rix");
    const auto sa_sample =
        static_cast<std::uint32_t>(args.get_int("sa-sample", 4));

    genomics::GenomeSimConfig config;
    config.length = 2'000'000;
    const genomics::MultiReference multi =
        fasta.empty()
            ? genomics::MultiReference(genomics::simulate_genome(config))
            : genomics::MultiReference(genomics::read_fasta_file(fasta));
    const auto& reference = multi.concatenated();
    if (fasta.empty()) {
        std::printf("no --reference given; using a %zu bp demo genome\n",
                    reference.size());
    }

    util::Stopwatch timer;
    const index::FmIndex fm(reference, sa_sample);
    std::printf("index built in %.1f s: %.1f MB (sa_sample=%u)\n",
                timer.seconds(),
                static_cast<double>(fm.memory_bytes()) / 1e6, sa_sample);

    index::write_rix(out_path, multi, fm); // text travels with the index
    std::printf("saved to %s\n", out_path.c_str());

    // Round-trip sanity check: the mapped view answers like the build.
    timer.reset();
    const auto mapped = index::MappedIndex::open(out_path);
    const auto probe = reference.sequence().extract(1234, 20);
    if (mapped.fm().search(probe).count() != fm.search(probe).count() ||
        mapped.multi().concatenated().size() != reference.size()) {
        std::fprintf(stderr, "round-trip mismatch!\n");
        return 1;
    }
    std::printf("reopened (%.1f MB mapped) and verified in %.2f s\n",
                static_cast<double>(mapped.mapped_bytes()) / 1e6,
                timer.seconds());
    return 0;
}
