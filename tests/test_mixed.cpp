// Mixed-length bucketed batching and gzip input, end to end: length
// quantization / virtual-padding properties, the reorder writer that
// restores input order across interleaved class streams, the headline
// oracle — bucketed streaming SAM is byte-identical to splitting the
// input by length class up front — and the gzip layer (transparent .gz
// twins, truncated-vs-corrupt error taxonomy, dual-offset diagnostics,
// paired lockstep across compressed mates, daemon round trips).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "pipeline/mapping_api.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/gzip_stream.hpp"

namespace repute {
namespace {

using pipeline::OnMalformed;
using pipeline::OrderedBatch;
using pipeline::OrderedPairBatch;
using pipeline::PairedStreamingReader;
using pipeline::StreamingFastxReader;
using pipeline::StreamingReaderConfig;

std::string fastq_text(const genomics::ReadBatch& batch) {
    std::string out;
    for (const auto& read : batch.reads) {
        out += '@' + read.name + '\n' + read.to_string() + "\n+\n";
        out += read.quality.empty() ? std::string(read.length(), 'I')
                                    : read.quality;
        out += '\n';
    }
    return out;
}

/// One FASTQ record of length n whose bases cycle ACGT.
std::string record_of(const std::string& name, std::size_t n) {
    static const char bases[] = "ACGT";
    std::string seq;
    for (std::size_t i = 0; i < n; ++i) seq += bases[i % 4];
    return '@' + name + '\n' + seq + "\n+\n" + std::string(n, 'I') + '\n';
}

std::vector<OrderedBatch> drain(StreamingFastxReader& reader) {
    std::vector<OrderedBatch> out;
    OrderedBatch unit;
    while (reader.next_bucket(unit)) out.push_back(unit);
    return out;
}

// ---------------------------------------------------------------------
// Length-class quantization and virtual padding

TEST(BucketReader, QuantizesIntoGridClassesWithVirtualPadding) {
    std::string fastq;
    const std::size_t lengths[] = {5, 16, 17, 30, 32};
    for (std::size_t i = 0; i < 5; ++i) {
        fastq += record_of("r" + std::to_string(i), lengths[i]);
    }
    std::istringstream in(fastq);
    StreamingFastxReader reader(in, {});
    const auto buckets = drain(reader);

    ASSERT_EQ(buckets.size(), 2u); // ceilings 16 and 32
    std::map<std::size_t, const OrderedBatch*> by_ceiling;
    for (const auto& b : buckets) by_ceiling[b.batch.read_length] = &b;
    ASSERT_TRUE(by_ceiling.count(16));
    ASSERT_TRUE(by_ceiling.count(32));

    // batch.read_length is the class ceiling (virtual padding); every
    // read keeps its true length.
    const auto& c16 = *by_ceiling[16];
    ASSERT_EQ(c16.batch.size(), 2u);
    EXPECT_EQ(c16.batch.reads[0].length(), 5u);
    EXPECT_EQ(c16.batch.reads[1].length(), 16u);
    EXPECT_EQ(c16.ordinals, (std::vector<std::uint64_t>{0, 1}));

    const auto& c32 = *by_ceiling[32];
    ASSERT_EQ(c32.batch.size(), 3u);
    EXPECT_EQ(c32.batch.reads[0].length(), 17u);
    EXPECT_EQ(c32.ordinals, (std::vector<std::uint64_t>{2, 3, 4}));
    // Ids are dense within each bucket (batch-local).
    for (std::size_t i = 0; i < c32.batch.size(); ++i) {
        EXPECT_EQ(c32.batch.reads[i].id, i);
    }

    EXPECT_EQ(reader.stats().records, 5u);
    EXPECT_EQ(reader.stats().length_classes, 2u);
    // (16-5) + (16-16) + (32-17) + (32-30) + (32-32)
    EXPECT_EQ(reader.stats().pad_bases, 11u + 15u + 2u);
}

TEST(BucketReader, GridOneMeansExactLengthClassesAndZeroPad) {
    std::istringstream in(record_of("a", 21) + record_of("b", 22) +
                          record_of("c", 21));
    StreamingReaderConfig config;
    config.length_grid = 1;
    StreamingFastxReader reader(in, config);
    const auto buckets = drain(reader);
    ASSERT_EQ(buckets.size(), 2u);
    for (const auto& b : buckets) {
        EXPECT_EQ(b.batch.read_length, b.batch.reads[0].length());
    }
    EXPECT_EQ(reader.stats().pad_bases, 0u);
    EXPECT_EQ(reader.stats().length_classes, 2u);
}

TEST(BucketReader, FlushSpanBoundFlushesOldestBucketShort) {
    // Two classes alternate; with batch_size 4 and one deferred batch
    // allowed, the fifth buffered record must force the bucket holding
    // ordinal 0 out (short), before either bucket fills naturally.
    std::string fastq;
    for (int i = 0; i < 8; ++i) {
        fastq += record_of("r" + std::to_string(i), i % 2 ? 48 : 16);
    }
    std::istringstream in(fastq);
    StreamingReaderConfig config;
    config.batch_size = 4;
    config.max_deferred_batches = 1;
    StreamingFastxReader reader(in, config);

    OrderedBatch first;
    ASSERT_TRUE(reader.next_bucket(first));
    EXPECT_LT(first.batch.size(), 4u); // flushed short by the span bound
    EXPECT_EQ(first.ordinals.front(), 0u); // and it held the oldest read

    const auto rest = drain(reader);
    std::size_t total = first.batch.size();
    for (const auto& b : rest) total += b.batch.size();
    EXPECT_EQ(total, 8u); // nothing lost

    // The paired reader shares the bound, over (c1, c2) tuple classes.
    std::istringstream in1(fastq), in2(fastq);
    PairedStreamingReader paired(in1, in2, config);
    OrderedPairBatch pair_first;
    ASSERT_TRUE(paired.next_bucket(pair_first));
    EXPECT_LT(pair_first.first.size(), 4u);
    EXPECT_EQ(pair_first.ordinals.front(), 0u);
    std::size_t pairs = pair_first.first.size();
    OrderedPairBatch unit;
    while (paired.next_bucket(unit)) {
        EXPECT_EQ(unit.first.size(), unit.second.size());
        pairs += unit.first.size();
    }
    EXPECT_EQ(pairs, 8u);
}

TEST(BucketReader, FixedLengthModeDropsOtherLengths) {
    std::istringstream in(record_of("a", 16) + record_of("b", 20) +
                          record_of("c", 16));
    StreamingReaderConfig config;
    config.read_length = 16;
    StreamingFastxReader reader(in, config);
    const auto buckets = drain(reader);
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].batch.size(), 2u);
    EXPECT_EQ(buckets[0].batch.read_length, 16u);
    EXPECT_EQ(reader.stats().dropped_length, 1u);
    // Ordinals stay dense over *accepted* reads only.
    EXPECT_EQ(buckets[0].ordinals, (std::vector<std::uint64_t>{0, 1}));
}

TEST(BucketReader, MalformedRecordFailsFastWhenConfigured) {
    std::istringstream in(record_of("a", 8) + "@bad\nACGT\n+\nIII\n");
    StreamingReaderConfig config;
    config.on_malformed = OnMalformed::Fail;
    StreamingFastxReader reader(in, config);
    OrderedBatch unit;
    try {
        while (reader.next_bucket(unit)) {
        }
        FAIL() << "expected malformed record to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("record"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// RecordReorderWriter

TEST(RecordReorderWriter, RestoresInputOrderAcrossOutOfOrderAdds) {
    std::ostringstream out;
    pipeline::RecordReorderWriter writer(out);
    writer.add(2, "c\n");
    writer.add(0, "a\n");
    writer.add(3, "d\n");
    writer.add(1, "b\n");
    writer.finish();
    EXPECT_EQ(out.str(), "a\nb\nc\nd\n");
    EXPECT_GE(writer.max_parked(), 2u); // 2 and 3 waited on 0/1
}

TEST(RecordReorderWriter, FinishThrowsOnOrdinalGap) {
    std::ostringstream out;
    pipeline::RecordReorderWriter writer(out);
    writer.add(0, "a\n");
    writer.add(2, "c\n"); // ordinal 1 never arrives
    EXPECT_THROW(writer.finish(), std::logic_error);
}

// ---------------------------------------------------------------------
// The oracle: bucketed mixed-length mapping == per-length split

/// Shared mapping fixture: one genome, three read-length classes
/// interleaved round-robin into a single FASTQ, with names that encode
/// the global input ordinal ("mix.<ordinal>").
class MixedOracleTest : public ::testing::Test {
protected:
    void SetUp() override {
        genomics::GenomeSimConfig gconfig;
        gconfig.length = 25'000;
        gconfig.seed = 23;
        genomics::Reference genome = genomics::simulate_genome(gconfig);

        const std::size_t lengths[] = {72, 100, 131}; // ceilings 80/112/144
        for (std::size_t c = 0; c < 3; ++c) {
            genomics::ReadSimConfig rconfig;
            rconfig.n_reads = 50;
            rconfig.read_length = lengths[c];
            rconfig.max_errors = 3;
            rconfig.seed = 1000 + c;
            classes_[c] = genomics::simulate_reads(genome, rconfig).batch;
        }
        // Interleave round-robin; rename so every read carries its
        // global input ordinal (simulated names collide across classes).
        std::uint64_t ordinal = 0;
        for (std::size_t i = 0; i < 50; ++i) {
            for (std::size_t c = 0; c < 3; ++c) {
                auto& read = classes_[c].reads[i];
                read.name = "mix." + std::to_string(ordinal++);
                genomics::ReadBatch one;
                one.read_length = read.length();
                one.reads.push_back(read);
                mixed_fastq_ += fastq_text(one);
            }
        }

        pipeline::SessionConfig sconfig;
        sconfig.mapper_pool = 2;
        session_ = pipeline::MappingSession::from_multi(
            genomics::MultiReference(std::move(genome)), sconfig);
    }

    std::string map_streaming(const std::string& fastq,
                              std::size_t batch_size) {
        std::istringstream reads(fastq);
        pipeline::MapRequest request;
        request.reads = &reads;
        request.delta = 3;
        request.map_workers = 2;
        request.reader.batch_size = batch_size;
        std::ostringstream sam;
        session_->map(request, sam);
        return sam.str();
    }

    /// A uniform class in one bucket at its exact length (grid 1, so
    /// no virtual padding): one map call, one emit.
    std::string map_one_batch(const genomics::ReadBatch& batch) {
        std::istringstream reads(fastq_text(batch));
        pipeline::MapRequest request;
        request.reads = &reads;
        request.delta = 3;
        request.reader.batch_size = batch.size();
        request.reader.length_grid = 1;
        std::ostringstream sam;
        const auto response = session_->map(request, sam);
        EXPECT_EQ(response.pipeline.units, 1u);
        return sam.str();
    }

    static void split_sam(const std::string& sam, std::string& header,
                          std::vector<std::string>& records) {
        std::istringstream in(sam);
        std::string line;
        while (std::getline(in, line)) {
            if (!line.empty() && line[0] == '@') {
                header += line + '\n';
            } else if (!line.empty()) {
                records.push_back(line + '\n');
            }
        }
    }

    genomics::ReadBatch classes_[3];
    std::string mixed_fastq_;
    std::unique_ptr<pipeline::MappingSession> session_;
};

TEST_F(MixedOracleTest, BucketedStreamingMatchesPerLengthSplitOracle) {
    // Small batches force many interleaved buckets plus span flushes.
    const std::string streamed = map_streaming(mixed_fastq_, 16);

    // Oracle: map each uniform class as one batch, then re-merge the
    // records in global input order (the ordinal is in the qname).
    std::string oracle_header;
    std::map<std::string, std::string> by_qname;
    for (const auto& batch : classes_) {
        std::string header;
        std::vector<std::string> records;
        split_sam(map_one_batch(batch), header, records);
        if (oracle_header.empty()) oracle_header = header;
        EXPECT_EQ(header, oracle_header);
        for (const auto& line : records) {
            by_qname[line.substr(0, line.find('\t'))] += line;
        }
    }
    std::string expected = oracle_header;
    for (std::uint64_t i = 0; i < 150; ++i) {
        expected += by_qname["mix." + std::to_string(i)];
    }
    EXPECT_EQ(streamed, expected);
}

TEST_F(MixedOracleTest, BatchSizeDoesNotChangeBucketedOutput) {
    EXPECT_EQ(map_streaming(mixed_fastq_, 16),
              map_streaming(mixed_fastq_, 4096));
}

TEST_F(MixedOracleTest, GzInputIsByteIdenticalToPlainTwin) {
    if (!util::zlib_enabled()) {
        GTEST_SKIP() << "built with -DREPUTE_ZLIB=OFF";
    }
    const std::string gz = util::gzip_compress(mixed_fastq_);
    EXPECT_EQ(map_streaming(gz, 64), map_streaming(mixed_fastq_, 64));
}

// ---------------------------------------------------------------------
// Gzip error taxonomy and diagnostics

TEST(Gzip, TruncatedAndCorruptStreamsThrowDistinctErrors) {
    if (!util::zlib_enabled()) {
        GTEST_SKIP() << "built with -DREPUTE_ZLIB=OFF";
    }
    // String (not literal) prefix: concatenating a literal inside the
    // inlined loop trips GCC 12's -Wrestrict false positive.
    static const std::string kPrefix = "r";
    std::string fastq;
    for (int i = 0; i < 64; ++i) {
        fastq += record_of(kPrefix + std::to_string(i), 40);
    }
    const std::string gz = util::gzip_compress(fastq);

    // Drains to End, skipping Malformed records: corrupt deflate data
    // first surfaces as garbage (malformed) records, and the decode
    // error itself only throws once the scanner reads past them.
    const auto drain_records = [](const std::string& bytes) {
        std::istringstream in(bytes);
        genomics::FastxRecordStream stream(in);
        genomics::FastqRecord rec;
        while (stream.next(rec) !=
               genomics::FastxRecordStream::Status::End) {
        }
    };

    try { // input ends mid-member: a partial download
        drain_records(gz.substr(0, gz.size() - 12));
        FAIL() << "expected truncated gzip to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }

    try { // flipped trailer CRC: bit rot, deterministically detected
        std::string corrupt = gz;
        for (std::size_t i = gz.size() - 8; i < gz.size() - 4; ++i) {
            corrupt[i] = static_cast<char>(~corrupt[i]);
        }
        drain_records(corrupt);
        FAIL() << "expected corrupt gzip to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Gzip, MultiMemberConcatenationInflatesSeamlessly) {
    if (!util::zlib_enabled()) {
        GTEST_SKIP() << "built with -DREPUTE_ZLIB=OFF";
    }
    const std::string gz = util::gzip_compress(record_of("a", 10)) +
                           util::gzip_compress(record_of("b", 20));
    std::istringstream in(gz);
    genomics::FastxRecordStream stream(in);
    genomics::FastqRecord rec;
    ASSERT_EQ(stream.next(rec), genomics::FastxRecordStream::Status::Record);
    EXPECT_EQ(rec.name, "a");
    ASSERT_EQ(stream.next(rec), genomics::FastxRecordStream::Status::Record);
    EXPECT_EQ(rec.name, "b");
    EXPECT_EQ(stream.next(rec), genomics::FastxRecordStream::Status::End);
}

TEST(Gzip, MalformedRecordReportsBothOffsets) {
    // Record "b" (quality shorter than sequence) starts at uncompressed
    // byte 15 — right after "@a\nACGT\n+\nIIII\n".
    const std::string plain = "@a\nACGT\n+\nIIII\n@b\nACGT\n+\nIII\n";

    const auto error_of = [](std::istream& in) -> std::string {
        genomics::FastxRecordStream stream(in);
        genomics::FastqRecord rec;
        std::string error;
        while (true) {
            const auto status = stream.next(rec, &error);
            if (status == genomics::FastxRecordStream::Status::Malformed) {
                return error;
            }
            if (status == genomics::FastxRecordStream::Status::End) {
                return {};
            }
        }
    };

    std::istringstream plain_in(plain);
    const std::string plain_error = error_of(plain_in);
    EXPECT_NE(plain_error.find("(at byte 15"), std::string::npos)
        << plain_error;

    if (!util::zlib_enabled()) return;
    std::istringstream gz_in(util::gzip_compress(plain));
    const std::string gz_error = error_of(gz_in);
    EXPECT_NE(gz_error.find("uncompressed byte 15"), std::string::npos)
        << gz_error;
    EXPECT_NE(gz_error.find("compressed byte"), std::string::npos)
        << gz_error;
}

TEST(Gzip, DisabledBuildRefusesCompressedInputLoudly) {
    if (util::zlib_enabled()) {
        GTEST_SKIP() << "this build carries zlib";
    }
    std::istringstream in("\x1f\x8b\x08rest-does-not-matter");
    try {
        genomics::FastxRecordStream stream(in);
        FAIL() << "expected a clear no-zlib error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("without zlib"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Paired lockstep across compressed mates

TEST(PairedBuckets, DesynchronizedMateFilesThrow) {
    const std::string mate1 =
        record_of("p0", 30) + record_of("p1", 30) + record_of("p2", 30);
    std::string mate2 = record_of("p0", 30) + record_of("p1", 30);
    if (util::zlib_enabled()) mate2 = util::gzip_compress(mate2);

    std::istringstream in1(mate1), in2(mate2);
    PairedStreamingReader reader(in1, in2, {});
    OrderedPairBatch unit;
    try {
        while (reader.next_bucket(unit)) {
        }
        FAIL() << "expected desynchronized mates to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("desynchronized"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PairedBuckets, MalformedRecordDropsTheWholePair) {
    // Mate 1's middle record is malformed; the pair drops as a unit so
    // the surviving slots stay name-synchronized.
    const std::string mate1 = record_of("p0", 24) +
                              "@bad\nACGT\n+\nIII\n" +
                              record_of("p2", 24);
    const std::string mate2 =
        record_of("p0", 24) + record_of("p1", 24) + record_of("p2", 24);
    std::istringstream in1(mate1), in2(mate2);
    PairedStreamingReader reader(in1, in2, {});
    std::vector<OrderedPairBatch> buckets;
    OrderedPairBatch unit;
    while (reader.next_bucket(unit)) buckets.push_back(unit);
    ASSERT_EQ(buckets.size(), 1u);
    ASSERT_EQ(buckets[0].first.size(), 2u);
    EXPECT_EQ(reader.stats().dropped_malformed, 1u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(buckets[0].first.reads[i].name,
                  buckets[0].second.reads[i].name);
    }
}

TEST(PairedBuckets, StrayLineDesynchronizesMatesAndThrows) {
    // The stray line is one malformed status that costs mate 1 no
    // record, so dropping the pair consumes p1/2 alone: the next pair
    // would be p1/1 with p2/2. The reader must refuse it, not mispair.
    const std::string mate1 = record_of("p0/1", 24) + "stray line\n" +
                              record_of("p1/1", 24) +
                              record_of("p2/1", 24) + record_of("p3/1", 24);
    std::string mate2;
    for (int i = 0; i < 5; ++i) {
        mate2 += record_of("p" + std::to_string(i) + "/2", 24);
    }
    std::istringstream in1(mate1), in2(mate2);
    PairedStreamingReader reader(in1, in2, {});
    OrderedPairBatch unit;
    try {
        while (reader.next_bucket(unit)) {
        }
        FAIL() << "expected mispaired mates to throw";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("desynchronized"), std::string::npos) << what;
        EXPECT_NE(what.find("p1/1"), std::string::npos) << what;
        EXPECT_NE(what.find("p2/2"), std::string::npos) << what;
    }
}

TEST(PairedBuckets, PerPairLengthTupleKeepsBucketsUniform) {
    // Pairs (30,60), (60,30), (30,60): two distinct tuple classes.
    std::string mate1 = record_of("p0", 30) + record_of("p1", 60) +
                        record_of("p2", 30);
    std::string mate2 = record_of("p0", 60) + record_of("p1", 30) +
                        record_of("p2", 60);
    std::istringstream in1(mate1), in2(mate2);
    PairedStreamingReader reader(in1, in2, {});
    std::vector<OrderedPairBatch> buckets;
    OrderedPairBatch unit;
    while (reader.next_bucket(unit)) buckets.push_back(unit);
    ASSERT_EQ(buckets.size(), 2u);
    for (const auto& b : buckets) {
        ASSERT_EQ(b.first.size(), b.second.size());
        for (const auto& read : b.first.reads) {
            EXPECT_EQ(read.length(), b.first.reads[0].length());
        }
    }
    EXPECT_EQ(reader.stats().records, 3u); // pairs, not reads
}

// ---------------------------------------------------------------------
// Wire protocol: trailing length_grid extension

TEST(Protocol, LengthGridRoundTripsAndDefaultsWhenAbsent) {
    serve::WireRequest request;
    request.reads = "@r\nACGT\n+\nIIII\n";
    request.length_grid = 4;
    const std::string payload = serve::encode_request(request);
    EXPECT_EQ(serve::decode_request(payload).length_grid, 4u);

    // An old client's payload simply ends after the blobs: the decoder
    // defaults the grid instead of rejecting the request.
    const std::string old_payload =
        payload.substr(0, payload.size() - sizeof(std::uint32_t));
    EXPECT_EQ(serve::decode_request(old_payload).length_grid, 16u);

    // Stray bytes that are not a whole trailing field still fail loudly.
    EXPECT_THROW(serve::decode_request(payload + "xyz"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Daemon round trip with heterogeneous read lengths

TEST(ServeMixed, SocketAndOneShotAgreeOnHeterogeneousLengths) {
    genomics::GenomeSimConfig gconfig;
    gconfig.length = 20'000;
    gconfig.seed = 31;
    genomics::Reference genome = genomics::simulate_genome(gconfig);

    std::string fastq;
    for (std::size_t c = 0; c < 2; ++c) {
        genomics::ReadSimConfig rconfig;
        rconfig.n_reads = 40;
        rconfig.read_length = c == 0 ? 60 : 90;
        rconfig.max_errors = 2;
        rconfig.seed = 700 + c;
        auto batch = genomics::simulate_reads(genome, rconfig).batch;
        for (std::size_t i = 0; i < batch.reads.size(); ++i) {
            batch.reads[i].name =
                "het." + std::to_string(c) + "." + std::to_string(i);
        }
        fastq += fastq_text(batch);
    }

    pipeline::SessionConfig sconfig;
    sconfig.mapper_pool = 2;
    auto session = pipeline::MappingSession::from_multi(
        genomics::MultiReference(std::move(genome)), sconfig);

    serve::ServerConfig server_config;
    server_config.socket_path =
        testing::TempDir() + "repute_test_mixed.sock";
    server_config.handlers = 2;
    serve::Server server(*session, server_config);
    std::thread server_thread([&] { server.run(); });

    serve::WireRequest wire;
    wire.delta = 3;
    wire.reads = fastq; // read_length stays 0: bucketed mixed-length
    if (util::zlib_enabled()) wire.reads = util::gzip_compress(fastq);

    std::ostringstream socket_sam;
    try {
        serve::run_client(server_config.socket_path, wire, socket_sam);
    } catch (...) {
        server.stop();
        server_thread.join();
        throw;
    }
    server.stop();
    server_thread.join();

    // The same wire request mapped one-shot through the session.
    std::istringstream reads(wire.reads);
    pipeline::MapRequest request;
    request.reads = &reads;
    request.delta = wire.delta;
    request.reader.read_length = wire.read_length;
    request.reader.length_grid = wire.length_grid;
    std::ostringstream sam;
    session->map(request, sam);
    EXPECT_EQ(socket_sam.str(), sam.str());
}

} // namespace
} // namespace repute
