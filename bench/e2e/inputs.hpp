#pragma once
// Seeded input generation for the end-to-end benchmark.
//
// One genome serves every workload: an 8 Mbp genome_sim sequence with
// 50% interspersed repeats at 2.5% divergence, written as 8 equal
// contigs so a 4-shard index really has 4 shards. It derives from a
// fixed genome seed, so its FASTA and both indexes (ref.rix and the
// 4-shard ref.rixm, built by the `repute` binary under test) are made
// once per checkout and shared by every --seed. The read sets derive
// from --seed; each comes as plain FASTQ, a gzip twin and a truth
// sidecar (name, contig, 0-based offset, strand).
//
// Layout, under build-e2e/inputs/:
//   genome-<hash>/ref.fa, ref.rix, ref.rixm (+ ref.<i>.rix shards)
//   <seed>-<hash>/<set>.fq, <set>.fq.gz, <set>.truth for each read set
// <hash> covers every generator parameter (and --scale), and a .stamp
// file written last marks a directory complete, so reruns skip
// generation and an interrupted run regenerates.

#include <cstdint>
#include <string>

namespace e2e {

/// The generated read sets. Paired sets have _1/_2 mate files.
enum class ReadSet {
    Mixed,   ///< single-end 100/125/150 bp, interleaved
    Uniform, ///< single-end 150 bp
    Pairs,   ///< FR pairs, each mate 100 or 150 bp
    Serve,   ///< single-end mixed-length daemon payload pool
};

struct GenConfig {
    std::uint64_t seed = 1;
    /// Multiplies every read count and the genome length (the smoke
    /// test runs at 0.05).
    double scale = 1.0;
    std::string repute; ///< CLI used to build the indexes
};

struct Inputs {
    std::string genome_dir;
    std::string reads_dir;

    std::string fasta() const { return genome_dir + "/ref.fa"; }
    std::string rix() const { return genome_dir + "/ref.rix"; }
    std::string rixm() const { return genome_dir + "/ref.rixm"; }
    /// Mate `mate` (1 or 2) of a paired set; the only file of a
    /// single-end set when mate is 0.
    std::string fastq(ReadSet set, int mate = 0, bool gz = false) const;
    std::string truth(ReadSet set) const;
    /// One-read (or one-pair) input of the same shape, for set-up time.
    std::string one_read(ReadSet set, int mate = 0) const;
};

/// Reads per daemon payload and payloads in the pool.
constexpr std::size_t kPayloadReads = 256;
constexpr std::size_t kPayloads = 16;

/// Generates (or reuses) the inputs for `config`. Throws on failure.
Inputs generate_inputs(const GenConfig& config);

} // namespace e2e
