#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "proc.hpp"
#include "util/gzip_stream.hpp"
#include "util/prng.hpp"
#include "util/serialize.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace repute;

namespace {

// Generator parameters. Every value here feeds the cache hash.
constexpr std::uint64_t kGenomeSeed = 21;
constexpr std::size_t kGenomeLength = 8'000'000;
constexpr std::size_t kContigs = 8;
constexpr double kRepeatFraction = 0.50;
constexpr double kRepeatDivergence = 0.025;
constexpr std::size_t kShards = 4;
constexpr std::size_t kMixedReads = 1'000;
constexpr std::size_t kUniformReads = 4'000;
constexpr std::size_t kPairs = 1'000;
constexpr std::uint32_t kMixedErrors = 5;   // map_mixed_gz / serve delta
constexpr std::uint32_t kUniformErrors = 7; // map_kernel_150 delta
constexpr std::uint32_t kPairErrors = 5;
constexpr std::size_t kMixedLengths[] = {100, 125, 150};
constexpr std::size_t kMateLengths[] = {100, 150};
// Bump when the generator changes in a way the constants above miss.
constexpr int kGeneratorVersion = 2;

std::size_t scaled(std::size_t n, double scale) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) * scale + 0.5));
}

std::string hex(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::uint64_t fnv1a(const std::string& text) {
    return util::fnv1a64(text.data(), text.size());
}

std::string genome_params(double scale) {
    std::ostringstream out;
    out << "v" << kGeneratorVersion << " genome " << kGenomeSeed << ' '
        << scaled(kGenomeLength, scale) << ' ' << kContigs << ' '
        << kRepeatFraction << ' ' << kRepeatDivergence << " shards "
        << kShards;
    return out.str();
}

std::string read_params(double scale) {
    std::ostringstream out;
    out << genome_params(scale) << " reads " << scaled(kMixedReads, scale)
        << ' ' << scaled(kUniformReads, scale) << ' '
        << scaled(kPairs, scale) << ' ' << kPayloads * kPayloadReads << ' '
        << kMixedErrors << ' ' << kUniformErrors << ' ' << kPairErrors;
    return out.str();
}

const char* stem(ReadSet set) {
    switch (set) {
    case ReadSet::Mixed: return "mixed";
    case ReadSet::Uniform: return "u150";
    case ReadSet::Pairs: return "pairs";
    case ReadSet::Serve: return "serve";
    }
    return "?";
}

bool stamped(const std::string& dir, const std::string& params) {
    std::ifstream in(dir + "/.stamp");
    std::string line;
    return std::getline(in, line) && line == params;
}

void stamp(const std::string& dir, const std::string& params) {
    std::ofstream out(dir + "/.stamp");
    out << params << '\n';
    if (!out) throw std::runtime_error("cannot write " + dir + "/.stamp");
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write " + path);
}

/// Contig boundaries of the concatenated genome.
struct Contigs {
    std::vector<std::uint32_t> starts; ///< kContigs + 1 entries

    /// Contig index when [pos, pos + len) lies inside one contig.
    int containing(std::uint32_t pos, std::uint32_t len) const {
        for (std::size_t c = 0; c + 1 < starts.size(); ++c) {
            if (pos >= starts[c] && pos + len <= starts[c + 1]) {
                return static_cast<int>(c);
            }
        }
        return -1;
    }
};

/// A read set being written: FASTQ records per mate plus truth rows.
struct SetWriter {
    std::vector<genomics::FastqRecord> mates[2];
    std::ostringstream truth;

    void add(int mate, const std::string& name, const genomics::Read& read,
             const Contigs& contigs, int contig, std::uint32_t pos,
             char strand) {
        std::string seq = read.to_string();
        std::string quality(seq.size(), 'I');
        mates[mate].push_back({name, std::move(seq), std::move(quality)});
        truth << name << "\tctg" << contig + 1 << '\t'
              << pos - contigs.starts[static_cast<std::size_t>(contig)] << '\t'
              << strand << '\n';
    }

    void write(const Inputs& inputs, ReadSet set, bool paired) const {
        for (int m = 0; m < (paired ? 2 : 1); ++m) {
            const int mate = paired ? m + 1 : 0;
            std::ostringstream text, one;
            genomics::write_fastq(text, mates[m]);
            write_file(inputs.fastq(set, mate), text.str());
            write_file(inputs.fastq(set, mate, true),
                       util::gzip_compress(text.str()));
            // The set-up input: the first record of the set.
            genomics::write_fastq(one, {mates[m].front()});
            write_file(inputs.one_read(set, mate), one.str());
        }
        write_file(inputs.truth(set), truth.str());
    }
};

/// Single-end reads of the given lengths, interleaved record by record
/// (read i has length lengths[i % count]). Reads whose template
/// straddles a contig join are skipped: no mapper may report them.
void single_end_set(const genomics::Reference& genome, const Contigs& contigs,
                    std::span<const std::size_t> lengths, std::size_t n,
                    std::uint32_t max_errors, std::uint64_t seed,
                    const char* prefix, SetWriter& out) {
    std::vector<genomics::SimulatedReads> sims;
    for (std::size_t l = 0; l < lengths.size(); ++l) {
        genomics::ReadSimConfig config;
        config.n_reads = n / lengths.size() + n / 10 + 16;
        config.read_length = lengths[l];
        config.max_errors = max_errors;
        config.seed = util::mix64(seed * 31 + l);
        sims.push_back(genomics::simulate_reads(genome, config));
    }
    std::vector<std::size_t> next(lengths.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t l = i % lengths.size();
        const auto& sim = sims[l];
        for (;;) {
            if (next[l] >= sim.batch.size()) {
                throw std::runtime_error("read simulation ran out of reads");
            }
            const std::size_t k = next[l]++;
            const auto& origin = sim.origins[k];
            const int contig = contigs.containing(
                origin.position,
                static_cast<std::uint32_t>(lengths[l] + max_errors));
            if (contig < 0) continue;
            out.add(0, std::string(prefix).append(std::to_string(i)),
                    sim.batch.reads[k],
                    contigs, contig, origin.position,
                    origin.strand == genomics::Strand::Forward ? '+' : '-');
            break;
        }
    }
}

/// FR pairs simulated at 150 bp; each mate is then independently kept
/// at 150 bp or cut to its 5' 100 bp, so mate lengths mix within and
/// across pairs. Cutting mate 2 keeps the fragment's 3' end.
void pair_set(const genomics::Reference& genome, const Contigs& contigs,
              std::size_t n, std::uint64_t seed, SetWriter& out) {
    genomics::PairSimConfig config;
    config.n_pairs = n + n / 10 + 16;
    config.read_length = kMateLengths[1];
    config.max_errors = kPairErrors;
    config.seed = util::mix64(seed * 31);
    const auto sim = genomics::simulate_pairs(genome, config);
    util::Xoshiro256 rng(util::mix64(seed * 31 + 1));
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (;;) {
            if (next >= sim.origins.size()) {
                throw std::runtime_error("pair simulation ran out of pairs");
            }
            const std::size_t k = next++;
            const auto& origin = sim.origins[k];
            const int contig = contigs.containing(
                origin.fragment_start, origin.fragment_length + kPairErrors);
            if (contig < 0) continue;
            genomics::Read r1 = sim.first.reads[k];
            genomics::Read r2 = sim.second.reads[k];
            r1.codes.resize(kMateLengths[rng.bounded(2)]);
            r2.codes.resize(kMateLengths[rng.bounded(2)]);
            const std::string name = std::string("p").append(std::to_string(i));
            out.add(0, name + "/1", r1, contigs, contig, origin.fragment_start,
                    '+');
            out.add(1, name + "/2", r2, contigs, contig,
                    origin.fragment_start + origin.fragment_length -
                        static_cast<std::uint32_t>(r2.codes.size()),
                    '-');
            break;
        }
    }
}

void build_index(const std::string& repute, const Inputs& inputs,
                 std::vector<std::string> extra) {
    std::vector<std::string> argv = {repute, "index", "build", "--ref",
                                     inputs.fasta()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    const auto result = run_child(argv, inputs.genome_dir + "/index.log");
    if (result.status != 0) {
        throw std::runtime_error("repute index build failed (see " +
                                 inputs.genome_dir + "/index.log)");
    }
}

Contigs contig_starts(std::size_t genome_length) {
    Contigs contigs;
    for (std::size_t c = 0; c <= kContigs; ++c) {
        contigs.starts.push_back(
            static_cast<std::uint32_t>(genome_length * c / kContigs));
    }
    return contigs;
}

genomics::Reference simulate(double scale) {
    genomics::GenomeSimConfig config;
    config.length = scaled(kGenomeLength, scale);
    config.seed = kGenomeSeed;
    config.interspersed_fraction = kRepeatFraction;
    config.repeat_divergence = kRepeatDivergence;
    return genomics::simulate_genome(config, "e2e");
}

} // namespace

std::string Inputs::fastq(ReadSet set, int mate, bool gz) const {
    std::string path = reads_dir + "/" + stem(set);
    if (mate > 0) path.append("_").append(std::to_string(mate));
    return path + (gz ? ".fq.gz" : ".fq");
}

std::string Inputs::truth(ReadSet set) const {
    return reads_dir + "/" + stem(set) + ".truth";
}

std::string Inputs::one_read(ReadSet set, int mate) const {
    std::string path = reads_dir + "/" + stem(set) + "_one";
    if (mate > 0) path.append("_").append(std::to_string(mate));
    return path + ".fq";
}

Inputs generate_inputs(const GenConfig& config) {
    if (config.scale <= 0.0 || config.scale > 1.0) {
        throw std::invalid_argument("--scale must be in (0, 1]");
    }
    const std::string gparams = genome_params(config.scale);
    const std::string rparams =
        read_params(config.scale) + " seed " + std::to_string(config.seed);
    Inputs inputs;
    inputs.genome_dir = "build-e2e/inputs/genome-" + hex(fnv1a(gparams));
    inputs.reads_dir = std::string("build-e2e/inputs/")
                           .append(std::to_string(config.seed))
                           .append("-")
                           .append(hex(fnv1a(read_params(config.scale))));
    const bool genome_ready = stamped(inputs.genome_dir, gparams);
    const bool reads_ready = stamped(inputs.reads_dir, rparams);
    if (genome_ready && reads_ready) return inputs;

    const genomics::Reference genome = simulate(config.scale);
    const Contigs contigs = contig_starts(genome.size());

    if (!genome_ready) {
        fs::remove_all(inputs.genome_dir);
        fs::create_directories(inputs.genome_dir);
        const std::string ascii = genome.sequence().to_string();
        std::vector<genomics::FastaRecord> records;
        for (std::size_t c = 0; c < kContigs; ++c) {
            records.push_back({std::string("ctg").append(std::to_string(c + 1)),
                               ascii.substr(contigs.starts[c],
                                            contigs.starts[c + 1] -
                                                contigs.starts[c])});
        }
        {
            std::ofstream fasta(inputs.fasta());
            genomics::write_fasta(fasta, records);
            if (!fasta) throw std::runtime_error("cannot write ref.fa");
        }
        build_index(config.repute, inputs, {"--out", inputs.rix()});
        build_index(config.repute, inputs,
                    {"--out", inputs.rixm(), "--shards",
                     std::to_string(kShards), "--jobs",
                     std::to_string(kShards)});
        stamp(inputs.genome_dir, gparams);
    }

    if (!reads_ready) {
        fs::remove_all(inputs.reads_dir);
        fs::create_directories(inputs.reads_dir);
        const std::uint64_t seed = config.seed;
        {
            SetWriter set;
            single_end_set(genome, contigs, kMixedLengths,
                           scaled(kMixedReads, config.scale), kMixedErrors,
                           seed * 4 + 0, "m", set);
            set.write(inputs, ReadSet::Mixed, false);
        }
        {
            SetWriter set;
            const std::size_t lengths[] = {150};
            single_end_set(genome, contigs, lengths,
                           scaled(kUniformReads, config.scale),
                           kUniformErrors, seed * 4 + 1, "u", set);
            set.write(inputs, ReadSet::Uniform, false);
        }
        {
            SetWriter set;
            pair_set(genome, contigs, scaled(kPairs, config.scale),
                     seed * 4 + 2, set);
            set.write(inputs, ReadSet::Pairs, true);
        }
        {
            // The daemon's payload pool is fixed-size: request shape is
            // part of what the serve workload measures.
            SetWriter set;
            single_end_set(genome, contigs, kMixedLengths,
                           kPayloads * kPayloadReads, kMixedErrors,
                           seed * 4 + 3, "s", set);
            set.write(inputs, ReadSet::Serve, false);
        }
        stamp(inputs.reads_dir, rparams);
    }
    return inputs;
}

} // namespace e2e
