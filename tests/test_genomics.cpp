// genomics: sequences, FASTA/FASTQ round trips, the genome simulator's
// statistical contracts, the read simulator's ground-truth guarantee,
// and SAM-lite records read back from the emitter's output.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "align/edit_distance.hpp"
#include "core/mapping.hpp"
#include "genomics/fastx.hpp"
#include "genomics/spectrum.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "genomics/sam_lite.hpp"
#include "genomics/sequence.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"
#include "util/packed_dna.hpp"

namespace {

using repute::genomics::FastaRecord;
using repute::genomics::FastqRecord;
using repute::genomics::FastxRecordStream;
using repute::genomics::GenomeSimConfig;
using repute::genomics::Read;
using repute::genomics::read_fasta;
using repute::genomics::read_sam;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::SamRecord;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::Strand;
using repute::genomics::write_fasta;
using repute::genomics::write_fastq;

// -------------------------------------------------------------- Sequence

TEST(Sequence, ReadRoundTripAndReverseComplement) {
    Read read;
    read.codes = {0, 0, 1, 2, 3}; // AACGT
    EXPECT_EQ(read.to_string(), "AACGT");
    const auto rc = read.reverse_complement();
    Read rc_read;
    rc_read.codes = rc;
    EXPECT_EQ(rc_read.to_string(), "ACGTT");
}

TEST(Sequence, ReferenceFromAsciiHandlesN) {
    const auto ref = Reference::from_ascii("chr", "ACGTNNNNACGT");
    EXPECT_EQ(ref.size(), 12u);
    // Ns become deterministic bases: same seed, same result.
    const auto ref2 = Reference::from_ascii("chr", "ACGTNNNNACGT");
    EXPECT_EQ(ref.sequence().to_string(), ref2.sequence().to_string());
    EXPECT_EQ(ref.sequence().to_string().substr(0, 4), "ACGT");
}

// ----------------------------------------------------------------- FASTA

TEST(Fasta, ParsesMultiRecordMultiLine) {
    std::istringstream in(">chr1 description here\nACGT\nACGT\n"
                          ";comment\n>chr2\nTTTT\n");
    const auto records = read_fasta(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "chr1");
    EXPECT_EQ(records[0].sequence, "ACGTACGT");
    EXPECT_EQ(records[1].name, "chr2");
    EXPECT_EQ(records[1].sequence, "TTTT");
}

TEST(Fasta, RejectsSequenceBeforeHeader) {
    std::istringstream in("ACGT\n>chr1\nACGT\n");
    EXPECT_THROW((void)read_fasta(in), std::runtime_error);
}

TEST(Fasta, WriteReadRoundTrip) {
    const std::vector<FastaRecord> records = {
        {"a", std::string(150, 'A')}, {"b", "ACGT"}};
    std::stringstream io;
    write_fasta(io, records, 60);
    const auto parsed = read_fasta(io);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].sequence, records[0].sequence);
    EXPECT_EQ(parsed[1].sequence, records[1].sequence);
}

// ----------------------------------------------------------------- FASTQ

/// Drains a FASTQ stream: the well-formed records, plus the error text
/// of each malformed one in `errors`.
std::vector<FastqRecord> drain_fastq(std::istream& in,
                                     std::vector<std::string>& errors) {
    FastxRecordStream stream(in, repute::genomics::FastxFormat::Fastq);
    std::vector<FastqRecord> records;
    FastqRecord record;
    std::string error;
    while (true) {
        switch (stream.next(record, &error)) {
            case FastxRecordStream::Status::Record:
                records.push_back(record);
                break;
            case FastxRecordStream::Status::Malformed:
                errors.push_back(error);
                break;
            case FastxRecordStream::Status::End: return records;
        }
    }
}

TEST(Fastq, ParsesAndValidates) {
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2 extra\nTT\n+r2\nII\n");
    std::vector<std::string> errors;
    const auto records = drain_fastq(in, errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "r1");
    EXPECT_EQ(records[0].sequence, "ACGT");
    EXPECT_EQ(records[1].name, "r2"); // text after whitespace dropped
    EXPECT_EQ(records[1].quality, "II"); // '+' line may repeat the name
}

TEST(Fastq, RejectsTruncatedAndMismatched) {
    const std::pair<const char*, const char*> cases[] = {
        {"@r1\nACGT\n+\n", "truncated"},
        {"@r1\nACGT\n+\nII\n", "length mismatch"},
        {"@r1\nACGT\nX\nIIII\n", "missing '+'"},
    };
    for (const auto& [text, why] : cases) {
        std::istringstream in(text);
        std::vector<std::string> errors;
        EXPECT_TRUE(drain_fastq(in, errors).empty()) << text;
        ASSERT_FALSE(errors.empty()) << text;
        EXPECT_NE(errors.front().find(why), std::string::npos)
            << errors.front();
    }
}

TEST(Fastq, RoundTripAndBatchConversion) {
    std::vector<FastqRecord> records = {
        {"a", "ACGTACGT", "IIIIIIII"},
        {"b", "TTTTAAAA", "IIIIIIII"},
        {"short", "ACG", "III"},
    };
    std::stringstream io;
    write_fastq(io, records);
    std::vector<std::string> errors;
    const auto parsed = drain_fastq(io, errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_EQ(parsed.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(parsed[i].name, records[i].name);
        EXPECT_EQ(parsed[i].sequence, records[i].sequence);
        EXPECT_EQ(parsed[i].quality, records[i].quality);
    }

    // Batch conversion keeps every length: the 3 bp read lands in its
    // own length class and nothing is dropped.
    io.clear();
    io.seekg(0);
    repute::pipeline::StreamingReaderConfig config;
    config.length_grid = 1;
    repute::pipeline::StreamingFastxReader reader(io, config);
    repute::pipeline::OrderedBatch bucket;
    std::map<std::size_t, std::vector<std::string>> by_length;
    while (reader.next_bucket(bucket)) {
        for (const auto& read : bucket.batch.reads) {
            by_length[bucket.batch.read_length].push_back(
                read.to_string());
        }
    }
    EXPECT_EQ(reader.stats().dropped(), 0u);
    ASSERT_EQ(by_length.size(), 2u);
    EXPECT_EQ(by_length[8],
              (std::vector<std::string>{"ACGTACGT", "TTTTAAAA"}));
    EXPECT_EQ(by_length[3], (std::vector<std::string>{"ACG"}));
}

// ------------------------------------------------------------ genome sim

TEST(GenomeSim, RespectsLengthAndDeterminism) {
    GenomeSimConfig config;
    config.length = 30'000;
    config.seed = 5;
    const auto a = simulate_genome(config);
    const auto b = simulate_genome(config);
    EXPECT_EQ(a.size(), 30'000u);
    EXPECT_EQ(a.sequence(), b.sequence());

    config.seed = 6;
    const auto c = simulate_genome(config);
    EXPECT_NE(a.sequence(), c.sequence());
}

TEST(GenomeSim, GcContentNearTarget) {
    GenomeSimConfig config;
    config.length = 200'000;
    config.gc_content = 0.41;
    const auto ref = simulate_genome(config);
    std::size_t gc = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto code = ref.code_at(i);
        gc += (code == 1 || code == 2) ? 1 : 0;
    }
    const double fraction = static_cast<double>(gc) / ref.size();
    EXPECT_NEAR(fraction, 0.41, 0.04);
}

TEST(GenomeSim, RepeatsSkewKmerSpectrum) {
    // With interspersed repeats, some k-mers must be much more frequent
    // than the Poisson background would allow.
    GenomeSimConfig config;
    config.length = 150'000;
    config.interspersed_fraction = 0.45;
    const auto ref = simulate_genome(config);

    std::map<std::uint64_t, std::uint32_t> spectrum;
    std::uint64_t kmer = 0;
    const std::uint32_t k = 12;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        kmer = ((kmer << 2) | ref.code_at(i)) & ((1ULL << (2 * k)) - 1);
        if (i + 1 >= k) ++spectrum[kmer];
    }
    std::uint32_t max_count = 0;
    for (const auto& [key, count] : spectrum) {
        max_count = std::max(max_count, count);
    }
    // Background expectation is ~150k/16.7M << 1 per k-mer; repeats
    // should push some k-mer into double digits.
    EXPECT_GE(max_count, 10u);
}

TEST(GenomeSim, RejectsDegenerateConfigs) {
    GenomeSimConfig config;
    config.length = 0;
    EXPECT_THROW((void)simulate_genome(config), std::invalid_argument);
    config.length = 1000;
    config.interspersed_fraction = 0.9;
    config.tandem_fraction = 0.2;
    EXPECT_THROW((void)simulate_genome(config), std::invalid_argument);
}

// -------------------------------------------------------------- spectrum

TEST(Spectrum, HandComputedSmallCase) {
    // "AAAAAAAA": one distinct 4-mer occurring 5 times.
    const auto ref = Reference::from_ascii("t", "AAAAAAAA");
    const auto s = repute::genomics::kmer_spectrum(ref, 4);
    EXPECT_EQ(s.total_kmers, 5u);
    EXPECT_EQ(s.distinct_kmers, 1u);
    EXPECT_EQ(s.max_frequency, 5u);
    EXPECT_DOUBLE_EQ(s.mean_frequency, 5.0);
    EXPECT_DOUBLE_EQ(s.repetitive_fraction, 1.0); // 5 > 4
}

TEST(Spectrum, ProfileMatchesSummary) {
    GenomeSimConfig config;
    config.length = 50'000;
    const auto ref = simulate_genome(config);
    const auto summary = repute::genomics::kmer_spectrum(ref, 10);
    const auto profile =
        repute::genomics::kmer_frequency_profile(ref, 10);
    ASSERT_EQ(profile.size(), summary.total_kmers);
    const auto max_in_profile =
        *std::max_element(profile.begin(), profile.end());
    EXPECT_EQ(max_in_profile, summary.max_frequency);
    // Every position's k-mer occurs at least once (itself).
    for (const auto f : profile) EXPECT_GE(f, 1u);
}

TEST(Spectrum, RepeatRichGenomeIsHeavyTailed) {
    GenomeSimConfig repeat_rich;
    repeat_rich.length = 120'000;
    repeat_rich.interspersed_fraction = 0.5;
    repeat_rich.repeat_divergence = 0.02;
    GenomeSimConfig plain = repeat_rich;
    plain.interspersed_fraction = 0.0;
    plain.tandem_fraction = 0.0;

    const auto rich =
        repute::genomics::kmer_spectrum(simulate_genome(repeat_rich), 12);
    const auto flat =
        repute::genomics::kmer_spectrum(simulate_genome(plain), 12);
    EXPECT_GT(rich.repetitive_fraction, 5 * flat.repetitive_fraction);
    EXPECT_GT(rich.max_frequency, 4 * flat.max_frequency);
}

TEST(Spectrum, RejectsBadParameters) {
    const auto ref = Reference::from_ascii("t", "ACGTACGT");
    EXPECT_THROW((void)repute::genomics::kmer_spectrum(ref, 3),
                 std::invalid_argument);
    EXPECT_THROW((void)repute::genomics::kmer_spectrum(ref, 15),
                 std::invalid_argument);
    EXPECT_THROW((void)repute::genomics::kmer_spectrum(ref, 9),
                 std::invalid_argument); // longer than the text
}

// -------------------------------------------------------------- read sim

TEST(ReadSim, GroundTruthWithinEditBudget) {
    GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    const auto ref = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.n_reads = 200;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    const auto sim = simulate_reads(ref, rconfig);
    ASSERT_EQ(sim.batch.size(), 200u);
    ASSERT_EQ(sim.origins.size(), 200u);

    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        const auto& read = sim.batch.reads[i];
        const auto& origin = sim.origins[i];
        ASSERT_EQ(read.length(), 100u);
        EXPECT_LE(origin.edits, 5u);

        // The read (in forward orientation) must align to its origin
        // window within the budget.
        const auto window = ref.sequence().extract(
            origin.position, rconfig.read_length + rconfig.max_errors);
        const std::vector<std::uint8_t> query =
            origin.strand == Strand::Reverse ? read.reverse_complement()
                                             : read.codes;
        const auto distance =
            repute::align::semiglobal_distance(query, window);
        EXPECT_LE(distance, origin.edits)
            << "read " << i << " strand "
            << repute::genomics::strand_char(origin.strand);
    }
}

TEST(ReadSim, DeterministicAndSeedSensitive) {
    GenomeSimConfig gconfig;
    gconfig.length = 20'000;
    const auto ref = simulate_genome(gconfig);
    ReadSimConfig rconfig;
    rconfig.n_reads = 50;
    const auto a = simulate_reads(ref, rconfig);
    const auto b = simulate_reads(ref, rconfig);
    EXPECT_EQ(a.batch.reads[7].codes, b.batch.reads[7].codes);
    rconfig.seed = 999;
    const auto c = simulate_reads(ref, rconfig);
    bool any_diff = false;
    for (std::size_t i = 0; i < 50; ++i) {
        any_diff |= a.batch.reads[i].codes != c.batch.reads[i].codes;
    }
    EXPECT_TRUE(any_diff);
}

TEST(ReadSim, QualityModelProducesRampAndBudget) {
    GenomeSimConfig gconfig;
    gconfig.length = 80'000;
    const auto ref = simulate_genome(gconfig);

    ReadSimConfig rconfig;
    rconfig.n_reads = 400;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.quality_model = true;
    rconfig.phred_start = 38.0;
    rconfig.phred_end = 15.0; // strong ramp so the 3' bias is visible
    const auto sim = simulate_reads(ref, rconfig);

    std::uint64_t total_errors = 0;
    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        const auto& read = sim.batch.reads[i];
        ASSERT_EQ(read.quality.size(), 100u);
        EXPECT_LE(sim.origins[i].edits, 5u);
        total_errors += sim.origins[i].edits;
        // Phred+33 characters in the modeled range.
        for (const char c : read.quality) {
            EXPECT_GE(c, 33 + 2);
            EXPECT_LE(c, 33 + 41);
        }
        // Forward reads: quality descends along the read.
        if (sim.origins[i].strand == Strand::Forward) {
            EXPECT_GT(read.quality.front(), read.quality.back());
        } else {
            EXPECT_LT(read.quality.front(), read.quality.back());
        }
    }
    // With phred 38->15 the mean per-base error probability is ~1%,
    // so ~1-2 errors/read on average; definitely nonzero.
    EXPECT_GT(total_errors, sim.batch.size() / 2);
}

TEST(ReadSim, QualityReadsRemainMappableWithinBudget) {
    GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    const auto ref = simulate_genome(gconfig);
    ReadSimConfig rconfig;
    rconfig.n_reads = 100;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.quality_model = true;
    const auto sim = simulate_reads(ref, rconfig);
    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        const auto window = ref.sequence().extract(
            sim.origins[i].position,
            rconfig.read_length + rconfig.max_errors);
        const auto query =
            sim.origins[i].strand == Strand::Reverse
                ? sim.batch.reads[i].reverse_complement()
                : sim.batch.reads[i].codes;
        EXPECT_LE(repute::align::semiglobal_distance(query, window),
                  sim.origins[i].edits);
    }
}

TEST(ReadSim, ToFastqRecordsRoundTrip) {
    GenomeSimConfig gconfig;
    gconfig.length = 30'000;
    const auto ref = simulate_genome(gconfig);
    ReadSimConfig rconfig;
    rconfig.n_reads = 50;
    rconfig.read_length = 80;
    rconfig.quality_model = true;
    const auto sim = simulate_reads(ref, rconfig);

    const auto records = repute::genomics::to_fastq_records(sim);
    ASSERT_EQ(records.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(records[i].name, sim.batch.reads[i].name);
        EXPECT_EQ(records[i].sequence, sim.batch.reads[i].to_string());
        EXPECT_EQ(records[i].quality.size(), 80u);
    }
}

TEST(ReadSim, RejectsTooShortReference) {
    const auto ref = Reference::from_ascii("tiny", "ACGTACGT");
    ReadSimConfig config;
    config.read_length = 100;
    EXPECT_THROW((void)simulate_reads(ref, config), std::invalid_argument);
}

// -------------------------------------------------------------- SAM-lite

TEST(SamLite, WriteReadRoundTrip) {
    // SamEmitter is the only writer; read_sam must parse back what it
    // writes. r1 carries three substitutions, r2 has no mapping.
    GenomeSimConfig config;
    config.length = 5'000;
    const std::string text =
        simulate_genome(config).sequence().to_string();
    const repute::genomics::MultiReference multi(
        std::vector<FastaRecord>{{"chr21", text}});

    repute::genomics::ReadBatch batch;
    batch.read_length = 100;
    batch.reads.resize(2);
    batch.reads[0].name = "r1";
    batch.reads[1].name = "r2";
    for (std::size_t i = 0; i < 100; ++i) {
        char base = text[1233 + i];
        if (i == 10 || i == 50 || i == 90) base = base == 'A' ? 'C' : 'A';
        batch.reads[0].codes.push_back(repute::util::base_to_code(base));
        batch.reads[1].codes.push_back(repute::util::base_to_code('A'));
    }
    repute::core::MapResult result;
    result.per_read = {{{1233, 3, Strand::Forward}}, {}};

    std::stringstream io;
    repute::pipeline::SamEmitter emitter(io, multi, {true, 3});
    emitter.write_header();
    emitter.emit(batch, result);
    EXPECT_NE(io.str().find("@SQ\tSN:chr21\tLN:5000\n"), std::string::npos);
    const auto parsed = read_sam(io);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].qname, "r1");
    EXPECT_EQ(parsed[0].rname, "chr21");
    EXPECT_EQ(parsed[0].pos, 1234u);
    EXPECT_EQ(parsed[0].edit_distance, 3u);
    EXPECT_EQ(parsed[0].cigar, "100M");
    EXPECT_EQ(parsed[0].seq, batch.reads[0].to_string());
    EXPECT_EQ(parsed[0].strand(), Strand::Forward);
    EXPECT_EQ(parsed[1].qname, "r2");
    EXPECT_TRUE(parsed[1].unmapped());
}

TEST(SamLite, StrandFlag) {
    SamRecord rec;
    EXPECT_EQ(rec.strand(), Strand::Forward);
    rec.flag |= SamRecord::kFlagReverse;
    EXPECT_EQ(rec.strand(), Strand::Reverse);
}

TEST(SamLite, RejectsMalformedLines) {
    std::istringstream in("r1\t0\tchr\n");
    EXPECT_THROW((void)read_sam(in), std::runtime_error);
}

} // namespace
