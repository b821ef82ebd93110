// Streaming batch pipeline: chunked FASTA/FASTQ parsing with per-record
// error policy, bounded pipeline execution, and the headline
// property — streaming SAM output is byte-identical to the monolithic
// oracle (the whole file read as one batch, one map call, one emit),
// even on a skewed device fleet that finishes batches out of order.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "obs/trace.hpp"
#include "pipeline/batch_pipeline.hpp"
#include "pipeline/mapping_api.hpp"
#include "pipeline/mapping_pipeline.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"

namespace repute {
namespace {

using genomics::FastxRecordStream;
using Status = FastxRecordStream::Status;

std::string fastq_text(const genomics::ReadBatch& batch) {
    std::string out;
    for (const auto& read : batch.reads) {
        out += '@' + read.name + '\n' + read.to_string() + "\n+\n";
        out += read.quality.empty()
                   ? std::string(read.length(), 'I')
                   : read.quality;
        out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------
// FastxRecordStream

TEST(FastxRecordStream, ParsesFastqAndFastaWithAutoDetection) {
    {
        std::istringstream in("@r1 extra\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n");
        FastxRecordStream stream(in);
        genomics::FastqRecord rec;
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(stream.format(), genomics::FastxFormat::Fastq);
        EXPECT_EQ(rec.name, "r1");
        EXPECT_EQ(rec.sequence, "ACGT");
        EXPECT_EQ(rec.quality, "IIII");
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(rec.name, "r2");
        EXPECT_EQ(stream.next(rec), Status::End);
    }
    {
        std::istringstream in(">s1\nACGT\nACGT\n;comment\n>s2\nTT\n");
        FastxRecordStream stream(in);
        genomics::FastqRecord rec;
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(stream.format(), genomics::FastxFormat::Fasta);
        EXPECT_EQ(rec.name, "s1");
        EXPECT_EQ(rec.sequence, "ACGTACGT");
        EXPECT_TRUE(rec.quality.empty());
        ASSERT_EQ(stream.next(rec), Status::Record);
        EXPECT_EQ(rec.sequence, "TT");
        EXPECT_EQ(stream.next(rec), Status::End);
    }
}

TEST(FastxRecordStream, ReportsMalformedRecordsAndResyncs) {
    // Bad header, then a quality-length mismatch, then a good record.
    std::istringstream in(
        "garbage\n@bad\nACGT\n+\nII\n@good\nACGT\n+\nIIII\n");
    FastxRecordStream stream(in, genomics::FastxFormat::Fastq);
    genomics::FastqRecord rec;
    std::string error;
    ASSERT_EQ(stream.next(rec, &error), Status::Malformed);
    EXPECT_NE(error.find("expected '@'"), std::string::npos);
    ASSERT_EQ(stream.next(rec, &error), Status::Malformed);
    EXPECT_NE(error.find("length mismatch"), std::string::npos);
    ASSERT_EQ(stream.next(rec, &error), Status::Record);
    EXPECT_EQ(rec.name, "good");
    EXPECT_EQ(stream.next(rec), Status::End);
}

TEST(FastxRecordStream, TruncatedFinalRecordIsMalformedNotFatal) {
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n");
    FastxRecordStream stream(in);
    genomics::FastqRecord rec;
    std::string error;
    ASSERT_EQ(stream.next(rec, &error), Status::Record);
    ASSERT_EQ(stream.next(rec, &error), Status::Malformed);
    EXPECT_NE(error.find("truncated"), std::string::npos);
    EXPECT_EQ(stream.next(rec), Status::End);
}

// ---------------------------------------------------------------------
// StreamingFastxReader

TEST(StreamingFastxReader, EmptyFileYieldsNoBatches) {
    std::istringstream in("");
    pipeline::StreamingFastxReader reader(in);
    pipeline::OrderedBatch unit;
    EXPECT_FALSE(reader.next_bucket(unit));
    EXPECT_TRUE(unit.batch.empty());
    EXPECT_EQ(reader.stats().records, 0u);
    EXPECT_EQ(reader.stats().batches, 0u);
}

TEST(StreamingFastxReader, BatchSizeLargerThanFile) {
    std::istringstream in("@a\nACGT\n+\nIIII\n@b\nTTTT\n+\nIIII\n");
    pipeline::StreamingReaderConfig config;
    config.batch_size = 1000;
    pipeline::StreamingFastxReader reader(in, config);
    pipeline::OrderedBatch unit;
    ASSERT_TRUE(reader.next_bucket(unit));
    EXPECT_EQ(unit.batch.size(), 2u);
    EXPECT_EQ(unit.batch.read_length, 16u); // the class ceiling
    EXPECT_EQ(unit.batch.reads[0].id, 0u);
    EXPECT_EQ(unit.batch.reads[1].id, 1u);
    EXPECT_EQ(unit.ordinals, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_FALSE(reader.next_bucket(unit));
}

TEST(StreamingFastxReader, ChunksIntoFixedBatches) {
    std::string text;
    for (int i = 0; i < 10; ++i) {
        text += "@r" + std::to_string(i) + "\nACGTACGT\n+\nIIIIIIII\n";
    }
    std::istringstream in(text);
    pipeline::StreamingReaderConfig config;
    config.batch_size = 4;
    pipeline::StreamingFastxReader reader(in, config);
    pipeline::OrderedBatch unit;
    std::vector<std::size_t> sizes;
    while (reader.next_bucket(unit)) sizes.push_back(unit.batch.size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
    EXPECT_EQ(reader.stats().batches, 3u);
    EXPECT_EQ(reader.stats().records, 10u);
}

TEST(StreamingFastxReader, MalformedMidBatchDroppedAndCounted) {
    // Record 2 is truncated (missing quality line swallows the next
    // header slot), record 4 has a stray line; drop policy keeps going.
    const std::string text = "@r0\nAAAA\n+\nIIII\n"
                             "@r1\nCCCC\n+\n"
                             "@r2\nGGGG\n+\nIIII\n"
                             "stray line\n"
                             "@r3\nTTTT\n+\nIIII\n";
    std::istringstream in(text);
    pipeline::StreamingFastxReader reader(in);
    pipeline::OrderedBatch unit;
    ASSERT_TRUE(reader.next_bucket(unit));
    // r1's missing quality line swallows r2's header, so the parser
    // reports malformed once per orphaned line until it resyncs at the
    // next '@' — what matters is that it resyncs and nothing is fatal.
    EXPECT_EQ(reader.stats().dropped_malformed, 5u);
    EXPECT_FALSE(reader.stats().last_error.empty());
    // r0 and r3 survive; the r1/r2 tangle costs both records.
    ASSERT_EQ(unit.batch.size(), 2u);
    EXPECT_EQ(unit.batch.reads[0].name, "r0");
    EXPECT_EQ(unit.batch.reads[1].name, "r3");
}

TEST(StreamingFastxReader, FailFastPolicyThrows) {
    std::istringstream in("@r0\nAAAA\n+\nII\n");
    pipeline::StreamingReaderConfig config;
    config.on_malformed = pipeline::OnMalformed::Fail;
    pipeline::StreamingFastxReader reader(in, config);
    pipeline::OrderedBatch unit;
    EXPECT_THROW(reader.next_bucket(unit), std::runtime_error);
}

// ---------------------------------------------------------------------
// BatchPipeline engine

TEST(BatchPipeline, DeliversEveryUnitOnceDespiteSkewedWorkers) {
    pipeline::PipelineConfig config;
    config.queue_depth = 2;
    config.map_workers = 2;
    pipeline::BatchPipeline<int, int> engine(config);
    int next = 0;
    std::vector<int> units;
    const auto stats = engine.run(
        [&](int& unit) {
            if (next >= 9) return false;
            unit = next++;
            return true;
        },
        [](const int& unit, std::size_t) {
            // Even units are slow: completion order is scrambled.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                unit % 2 == 0 ? 12 : 1));
            return unit * 10;
        },
        [&](const int& unit, const int& result) {
            EXPECT_EQ(result, unit * 10);
            units.push_back(unit);
        });
    // Completion order, not input order: the engine keeps no ordering
    // buffer (callers reorder by the ordinals their units carry).
    std::sort(units.begin(), units.end());
    ASSERT_EQ(units.size(), 9u);
    for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(units[i], static_cast<int>(i));
    }
    EXPECT_EQ(stats.units, 9u);
    // Backpressure bound: queues + workers + sink, not input size.
    EXPECT_LE(stats.max_in_flight,
              2 * config.queue_depth + config.map_workers + 2);
}

TEST(BatchPipeline, SourceExceptionPropagates) {
    pipeline::BatchPipeline<int, int> engine({});
    EXPECT_THROW(
        engine.run([](int&) -> bool { throw std::runtime_error("boom"); },
                   [](const int& u, std::size_t) { return u; },
                   [](const int&, const int&) {}),
        std::runtime_error);
}

TEST(BatchPipeline, MapExceptionPropagates) {
    pipeline::BatchPipeline<int, int> engine({});
    int next = 0;
    EXPECT_THROW(
        engine.run(
            [&](int& unit) {
                unit = next++;
                return next <= 100;
            },
            [](const int&, std::size_t) -> int {
                throw std::runtime_error("map died");
            },
            [](const int&, const int&) {}),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// End-to-end mapping equivalence

struct MappingFixture {
    genomics::Reference reference;
    genomics::MultiReference multi;
    index::FmIndex fm;
    genomics::SimulatedReads sim;

    static genomics::Reference make_reference(std::size_t length) {
        genomics::GenomeSimConfig config;
        config.length = length;
        config.seed = 7;
        return genomics::simulate_genome(config);
    }

    explicit MappingFixture(std::size_t genome = 300'000,
                            std::size_t n_reads = 400)
        : reference(make_reference(genome)),
          multi({{reference.name(), reference.sequence().to_string()}}),
          fm(multi.concatenated(), 4),
          sim([&] {
              genomics::ReadSimConfig config;
              config.n_reads = n_reads;
              config.read_length = 100;
              config.max_errors = 3;
              config.seed = 11;
              return genomics::simulate_reads(multi.concatenated(),
                                              config);
          }()) {}

    std::unique_ptr<core::HeterogeneousMapper> mapper(
        ocl::Device& device) const {
        core::HeterogeneousMapperConfig config;
        config.kernel.s_min = 14;
        return core::make_repute(multi.concatenated(), fm,
                                 {{&device, 1.0}}, config);
    }
};

ocl::DeviceProfile skew_profile(const char* name, std::uint32_t units,
                                double ops) {
    ocl::DeviceProfile p;
    p.name = name;
    p.compute_units = units;
    p.ops_per_unit_per_second = ops;
    p.global_memory_bytes = 1ULL << 31;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 1e-4;
    return p;
}

TEST(MappingPipeline, StreamingSamIsByteIdenticalToMonolithic) {
    const MappingFixture fix;
    const std::uint32_t delta = 3;
    const std::string fastq = fastq_text(fix.sim.batch);

    // Monolithic oracle: whole file as one batch at the exact read
    // length (grid 1, no virtual padding) -> one map -> one emit.
    std::ostringstream mono_sam;
    {
        std::istringstream in(fastq);
        pipeline::StreamingReaderConfig one_batch;
        one_batch.batch_size = fix.sim.batch.size();
        one_batch.length_grid = 1;
        pipeline::StreamingFastxReader reader(in, one_batch);
        pipeline::OrderedBatch unit;
        ASSERT_TRUE(reader.next_bucket(unit));
        ASSERT_EQ(unit.batch.size(), fix.sim.batch.size());
        ASSERT_EQ(unit.batch.read_length, fix.sim.batch.read_length);
        ocl::Device cpu(skew_profile("mono-cpu", 8, 1e9));
        pipeline::SamEmitter emitter(mono_sam, fix.multi, {true, delta});
        emitter.write_header();
        emitter.emit(unit.batch, fix.mapper(cpu)->map(unit.batch, delta));
        EXPECT_FALSE(reader.next_bucket(unit));
    }

    // Streaming path over a deliberately skewed two-device fleet (the
    // fig3 skew setup): the fast worker races ahead, the reorder writer
    // must still emit in input order.
    std::ostringstream stream_sam;
    {
        std::istringstream in(fastq);
        pipeline::StreamingReaderConfig reader_config;
        reader_config.batch_size = 48;
        pipeline::StreamingFastxReader reader(in, reader_config);

        ocl::Device fast(skew_profile("fast-gpu", 16, 6e8));
        ocl::Device slow(skew_profile("slow-cpu", 2, 6e7));
        auto mapper_fast = fix.mapper(fast);
        auto mapper_slow = fix.mapper(slow);
        std::vector<core::Mapper*> mappers = {mapper_fast.get(),
                                              mapper_slow.get()};

        pipeline::SamEmitter emitter(stream_sam, fix.multi,
                                     {true, delta});
        emitter.write_header();
        pipeline::PipelineConfig config;
        config.queue_depth = 3;
        const auto stats = pipeline::run_pipeline(
            reader, mappers, delta, emitter, stream_sam, config);
        EXPECT_EQ(stats.units, reader.stats().batches);
        EXPECT_GT(stats.units, 4u);
    }

    EXPECT_EQ(mono_sam.str(), stream_sam.str());
}

TEST(MappingPipeline, PairedStreamingMatchesMonolithic) {
    const MappingFixture fix(200'000, 0);
    const std::uint32_t delta = 3;
    genomics::PairSimConfig pconfig;
    pconfig.n_pairs = 150;
    pconfig.read_length = 100;
    pconfig.max_errors = 2;
    pconfig.seed = 5;
    const auto pairs =
        genomics::simulate_pairs(fix.multi.concatenated(), pconfig);
    const std::string fastq1 = fastq_text(pairs.first);
    const std::string fastq2 = fastq_text(pairs.second);

    core::PairedConfig pair_config;
    pair_config.min_insert = 200;
    pair_config.max_insert = 500;

    std::ostringstream mono_sam;
    {
        ocl::Device cpu(skew_profile("mono-cpu", 8, 1e9));
        auto mapper = fix.mapper(cpu);
        core::PairedMapper paired(*mapper, fix.multi.concatenated(),
                                  pair_config);
        pipeline::SamEmitter emitter(mono_sam, fix.multi, {true, delta});
        emitter.write_header();
        emitter.emit_paired(
            pairs.first, pairs.second,
            paired.map_pairs(pairs.first, pairs.second, delta));
    }

    std::ostringstream stream_sam;
    {
        std::istringstream in1(fastq1), in2(fastq2);
        pipeline::StreamingReaderConfig reader_config;
        reader_config.batch_size = 32;
        pipeline::PairedStreamingReader reader(in1, in2, reader_config);

        ocl::Device fast(skew_profile("fast-gpu", 16, 6e8));
        ocl::Device slow(skew_profile("slow-cpu", 2, 6e7));
        auto mapper_fast = fix.mapper(fast);
        auto mapper_slow = fix.mapper(slow);
        core::PairedMapper paired_fast(*mapper_fast,
                                       fix.multi.concatenated(),
                                       pair_config);
        core::PairedMapper paired_slow(*mapper_slow,
                                       fix.multi.concatenated(),
                                       pair_config);
        std::vector<core::PairedMapper*> mappers = {&paired_fast,
                                                    &paired_slow};

        pipeline::SamEmitter emitter(stream_sam, fix.multi,
                                     {true, delta});
        emitter.write_header();
        const auto stats = pipeline::run_pipeline(reader, mappers, delta,
                                                  emitter, stream_sam);
        EXPECT_GT(stats.units, 4u);
    }

    EXPECT_EQ(mono_sam.str(), stream_sam.str());
}

TEST(MappingPipeline, PairedDesyncThrows) {
    const MappingFixture fix(200'000, 0);
    // Mate 2 file is one record short.
    std::istringstream in1("@a\n" + std::string(100, 'A') + "\n+\n" +
                           std::string(100, 'I') + "\n@b\n" +
                           std::string(100, 'C') + "\n+\n" +
                           std::string(100, 'I') + "\n");
    std::istringstream in2("@a\n" + std::string(100, 'A') + "\n+\n" +
                           std::string(100, 'I') + "\n");
    pipeline::PairedStreamingReader reader(in1, in2);
    ocl::Device cpu(skew_profile("cpu", 8, 1e9));
    auto mapper = fix.mapper(cpu);
    core::PairedMapper paired(*mapper, fix.multi.concatenated(), {});
    std::vector<core::PairedMapper*> mappers = {&paired};
    std::ostringstream sam;
    pipeline::SamEmitter emitter(sam, fix.multi, {false, 3});
    EXPECT_THROW(pipeline::run_pipeline(reader, mappers, 3, emitter, sam),
                 std::runtime_error);
}

TEST(MappingPipeline, RecordsMetricsWhenTracing) {
    const MappingFixture fix(150'000, 120);
    obs::TraceSession session;
    const std::string fastq = fastq_text(fix.sim.batch);
    std::istringstream in(fastq);
    pipeline::StreamingReaderConfig reader_config;
    reader_config.batch_size = 32;
    pipeline::StreamingFastxReader reader(in, reader_config);
    ocl::Device cpu(skew_profile("cpu", 8, 1e9));
    auto mapper = fix.mapper(cpu);
    std::vector<core::Mapper*> mappers = {mapper.get()};
    std::ostringstream sam;
    pipeline::SamEmitter emitter(sam, fix.multi, {false, 3});
    const auto stats =
        pipeline::run_pipeline(reader, mappers, 3, emitter, sam);
    EXPECT_EQ(session.registry().counter("pipeline.batches").value(),
              stats.units);
    EXPECT_EQ(session.registry()
                  .histogram("pipeline.batch_map_seconds")
                  .snapshot()
                  .count,
              stats.units);
    EXPECT_GT(stats.max_in_flight, 0u);
    EXPECT_FALSE(stats.format().empty());
}

TEST(MappingSession, PairedRequestReportsBothMatesTransferBytes) {
    const MappingFixture fix(150'000, 0);
    genomics::PairSimConfig pconfig;
    pconfig.n_pairs = 60;
    pconfig.read_length = 100;
    pconfig.seed = 9;
    const auto pairs =
        genomics::simulate_pairs(fix.multi.concatenated(), pconfig);
    const std::string fastq1 = fastq_text(pairs.first);
    const std::string fastq2 = fastq_text(pairs.second);
    auto session = pipeline::MappingSession::from_multi(fix.multi);

    const auto map = [&](const std::string& reads,
                         const std::string* reads2) {
        std::istringstream in1(reads), in2(reads2 ? *reads2 : "");
        pipeline::MapRequest request;
        request.reads = &in1;
        if (reads2 != nullptr) request.reads2 = &in2;
        request.delta = 3;
        std::ostringstream sam;
        return session->map(request, sam);
    };
    const auto mate1 = map(fastq1, nullptr);
    const auto mate2 = map(fastq2, nullptr);
    const auto paired = map(fastq1, &fastq2);
    EXPECT_GT(mate1.xfer_bytes_staged, 0u);
    EXPECT_EQ(paired.xfer_bytes_staged,
              mate1.xfer_bytes_staged + mate2.xfer_bytes_staged);
    EXPECT_EQ(paired.xfer_bytes_drained,
              mate1.xfer_bytes_drained + mate2.xfer_bytes_drained);
}

} // namespace
} // namespace repute
