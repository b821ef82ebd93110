#pragma once
// Chunked, length-bucketed FASTA/FASTQ reading: the input stage of the
// batch pipeline.
//
// The readers turn (possibly huge) sequence files into a series of
// uniform ReadBatches without ever materializing the whole file. Built
// on genomics::FastxRecordStream, which surfaces malformed records one
// at a time instead of throwing away the file — the reader applies a
// per-record error policy on top (drop-and-count, the default, or
// fail-fast for pipelines that must not silently lose input).
//
// The paper's kernels map fixed-n read sets, so every batch must be
// uniform. Records are quantized into length classes (sequence length
// rounded up to a multiple of config.length_grid) and accumulated into
// one bucket per class. A bucket dispatches as an independent unit when
// it fills, when the buffered-record span exceeds
// config.max_deferred_batches batches (the bucket holding the oldest
// record flushes first, bounding reorder latency and reader memory), or
// at end of input. Padding is virtual: batch.read_length is the class
// ceiling — sizing kernel scratch exactly as a uniform batch of that
// length would — while each Read keeps its true-length code vector, so
// mapping output is byte-identical to splitting the input by length up
// front. Each record carries a dense global ordinal so a downstream
// reorder buffer can restore input order across interleaved buckets.
//
// StreamingFastxReader reads one file; PairedStreamingReader reads two
// mate files in lockstep and classes each pair by the (ceiling1,
// ceiling2) tuple. Both are the same bucketing core: single-end is the
// one-mate case.

#include <cstdint>
#include <deque>
#include <istream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/sequence.hpp"

namespace repute::pipeline {

/// Policy for structurally malformed records (truncated record, missing
/// '+' line, length-mismatched quality, stray sequence data).
enum class OnMalformed {
    Drop, ///< skip the record, count it, keep streaming
    Fail, ///< throw std::runtime_error naming the record
};

struct StreamingReaderConfig {
    /// Reads per batch; a bucket flushed early may be smaller.
    std::size_t batch_size = 4096;
    OnMalformed on_malformed = OnMalformed::Drop;
    /// Length-class quantization: a read of length n lands in the class
    /// whose ceiling is n rounded up to a multiple of this grid. 1 =
    /// exact-length classes; 0 is treated as 1.
    std::size_t length_grid = 16;
    /// Flush-span bound: once more than max_deferred_batches *
    /// batch_size records sit in partially filled buckets, the bucket
    /// holding the oldest record flushes (possibly short). Bounds both
    /// reader memory and how far the output reorder buffer must look
    /// back.
    std::size_t max_deferred_batches = 8;
};

struct StreamingReaderStats {
    std::size_t records = 0;           ///< well-formed records (pairs)
    std::size_t batches = 0;           ///< non-empty batches yielded
    std::size_t dropped_malformed = 0; ///< structural rejects (Drop mode)
    std::size_t dropped_length = 0;    ///< empty records
    std::string last_error;            ///< most recent malformed message
    /// Virtual pad bases (class ceiling minus true length, summed over
    /// accepted reads) and distinct length classes.
    std::size_t pad_bases = 0;
    std::size_t length_classes = 0;

    std::size_t dropped() const noexcept {
        return dropped_malformed + dropped_length;
    }
};

/// A dispatched length-class bucket: a ReadBatch whose read_length is
/// the class ceiling, plus the global input ordinal of each read
/// (ordinals[i] belongs to batch.reads[i]; dense across all accepted
/// reads of the file, so a reorder buffer keyed on them restores input
/// order across interleaved buckets).
struct OrderedBatch {
    genomics::ReadBatch batch;
    std::vector<std::uint64_t> ordinals;
};

/// A dispatched paired bucket: lockstep mate batches (first.reads[i]
/// pairs with second.reads[i]; each side's read_length is its own class
/// ceiling) plus the global pair ordinal of each slot.
struct OrderedPairBatch {
    genomics::ReadBatch first;
    genomics::ReadBatch second;
    std::vector<std::uint64_t> ordinals;
};

namespace detail {

/// The bucketing core behind both readers: lockstep FASTX streams (one
/// per mate), each record tuple classed by its mates' ceilings. A
/// malformed record on any mate drops the whole tuple; after such a
/// drop the next tuple's mate names must agree (a trailing /1 or /2
/// aside), otherwise the mate files have desynchronized and next()
/// throws rather than mispair.
class BucketingReader {
public:
    /// The streams must outlive the reader.
    BucketingReader(std::span<std::istream* const> in,
                    const StreamingReaderConfig& config);

    /// Moves the next ready bucket's mate batches (one per stream) and
    /// ordinals out; false when the input is exhausted and every bucket
    /// has been flushed.
    bool next(std::span<genomics::ReadBatch* const> out,
              std::vector<std::uint64_t>& ordinals);

    const StreamingReaderStats& stats() const noexcept { return stats_; }
    const StreamingReaderConfig& config() const noexcept { return config_; }

private:
    struct Bucket {
        std::vector<genomics::ReadBatch> mates;
        std::vector<std::uint64_t> ordinals;
        std::size_t pad_bases = 0;
    };

    /// One input stream plus the scratch its current record needs.
    struct Mate {
        std::unique_ptr<genomics::FastxRecordStream> stream;
        genomics::FastqRecord record;
        std::string error;
        std::size_t ceiling = 0;
    };

    void accept();
    void flush(std::uint64_t key);
    void flush_oldest();

    StreamingReaderConfig config_;
    StreamingReaderStats stats_;
    std::vector<Mate> mates_;
    // Keyed by the mates' ceilings packed 32 bits each.
    std::map<std::uint64_t, Bucket> buckets_;
    std::deque<Bucket> ready_;
    std::set<std::uint64_t> classes_seen_;
    std::uint64_t next_ordinal_ = 0;
    std::size_t buffered_ = 0; ///< tuples across open buckets
    bool input_done_ = false;
    bool check_names_ = false; ///< a tuple was dropped as malformed
};

} // namespace detail

class StreamingFastxReader : private detail::BucketingReader {
public:
    /// The stream must outlive the reader.
    explicit StreamingFastxReader(std::istream& in,
                                  StreamingReaderConfig config = {});

    /// Yields the next ready length-class bucket (see the header comment
    /// for dispatch rules). Returns false when the input is exhausted
    /// and every bucket has been flushed. Throws on a malformed record
    /// under OnMalformed::Fail.
    bool next_bucket(OrderedBatch& out);

    using BucketingReader::config;
    using BucketingReader::stats;
};

/// Lockstep paired reader over two mate files, each pair classed by its
/// (ceiling1, ceiling2) tuple so every bucket is internally uniform on
/// both sides. Malformed records drop (or fail) the whole pair; mate
/// files that end at different records, or whose names disagree after a
/// dropped pair, throw. Stats count pairs, not individual records.
class PairedStreamingReader : private detail::BucketingReader {
public:
    /// Both streams must outlive the reader.
    PairedStreamingReader(std::istream& in1, std::istream& in2,
                          StreamingReaderConfig config = {});

    /// Yields the next ready pair bucket; same dispatch rules as
    /// StreamingFastxReader::next_bucket. Throws when the mate files
    /// desynchronize.
    bool next_bucket(OrderedPairBatch& out);

    using BucketingReader::config;
    using BucketingReader::stats;
};

} // namespace repute::pipeline
