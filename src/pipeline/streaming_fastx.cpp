#include "pipeline/streaming_fastx.hpp"

#include <array>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "pipeline/pipeline_stats.hpp"
#include "util/packed_dna.hpp"

namespace repute::pipeline {

namespace {

genomics::Read make_read(const genomics::FastqRecord& record,
                         std::size_t id) {
    genomics::Read read;
    read.id = static_cast<std::uint32_t>(id);
    read.name = record.name;
    read.quality = record.quality;
    read.codes.resize(record.sequence.size());
    for (std::size_t i = 0; i < record.sequence.size(); ++i) {
        read.codes[i] = util::base_to_code(record.sequence[i]);
    }
    return read;
}

/// A read name without its trailing mate suffix ("/1" or "/2").
std::string_view mate_stem(std::string_view name) {
    if (name.size() >= 2 && name[name.size() - 2] == '/' &&
        (name.back() == '1' || name.back() == '2')) {
        name.remove_suffix(2);
    }
    return name;
}

} // namespace

namespace detail {

BucketingReader::BucketingReader(std::span<std::istream* const> in,
                                 const StreamingReaderConfig& config)
    : config_(config) {
    for (std::istream* stream : in) {
        mates_.emplace_back().stream =
            std::make_unique<genomics::FastxRecordStream>(*stream);
    }
}

void BucketingReader::flush(std::uint64_t key) {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return;
    Bucket& bucket = it->second;
    hist_observe("pipeline.bucket_occupancy",
                 static_cast<double>(bucket.ordinals.size()) /
                     static_cast<double>(config_.batch_size));
    counter_add("pipeline.pad_bases", bucket.pad_bases);
    buffered_ -= bucket.ordinals.size();
    ready_.push_back(std::move(bucket));
    buckets_.erase(it);
}

void BucketingReader::flush_oldest() {
    std::uint64_t oldest_key = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [key, bucket] : buckets_) {
        if (!bucket.ordinals.empty() && bucket.ordinals.front() < oldest) {
            oldest = bucket.ordinals.front();
            oldest_key = key;
        }
    }
    if (oldest != std::numeric_limits<std::uint64_t>::max()) {
        flush(oldest_key);
    }
}

void BucketingReader::accept() {
    const Mate& lead = mates_.front();
    if (check_names_) {
        for (std::size_t m = 1; m < mates_.size(); ++m) {
            const Mate& mate = mates_[m];
            if (mate_stem(mate.record.name) != mate_stem(lead.record.name)) {
                throw std::runtime_error(
                    "paired inputs desynchronized after a dropped record: "
                    "mate 1 record " +
                    std::to_string(lead.stream->records_seen()) + " '" +
                    lead.record.name + "' vs mate " +
                    std::to_string(m + 1) + " record " +
                    std::to_string(mate.stream->records_seen()) + " '" +
                    mate.record.name + "'");
            }
        }
        check_names_ = false;
    }
    const std::size_t grid =
        config_.length_grid == 0 ? 1 : config_.length_grid;
    std::uint64_t key = 0;
    std::size_t pad = 0;
    for (Mate& mate : mates_) {
        const std::size_t len = mate.record.sequence.size();
        if (len == 0) {
            ++stats_.dropped_length;
            return;
        }
        mate.ceiling = (len + grid - 1) / grid * grid;
        key = (key << 32) | static_cast<std::uint64_t>(mate.ceiling);
        pad += mate.ceiling - len; // codes stay true-length
    }
    if (classes_seen_.insert(key).second) {
        stats_.length_classes = classes_seen_.size();
    }
    Bucket& bucket = buckets_[key];
    if (bucket.mates.empty()) {
        bucket.mates.resize(mates_.size());
        for (std::size_t m = 0; m < mates_.size(); ++m) {
            bucket.mates[m].read_length = mates_[m].ceiling; // virtual pad
        }
    }
    bucket.pad_bases += pad;
    for (std::size_t m = 0; m < mates_.size(); ++m) {
        bucket.mates[m].reads.push_back(
            make_read(mates_[m].record, bucket.ordinals.size()));
    }
    bucket.ordinals.push_back(next_ordinal_++);
    ++buffered_;
    ++stats_.records;
    stats_.pad_bases += pad;
    const std::size_t span_limit =
        config_.batch_size *
        (config_.max_deferred_batches == 0 ? 1
                                           : config_.max_deferred_batches);
    if (bucket.ordinals.size() >= config_.batch_size) {
        flush(key);
    } else if (buffered_ > span_limit) {
        flush_oldest();
    }
}

bool BucketingReader::next(std::span<genomics::ReadBatch* const> out,
                           std::vector<std::uint64_t>& ordinals) {
    using Status = genomics::FastxRecordStream::Status;
    const std::size_t n = mates_.size();
    while (ready_.empty() && !input_done_) {
        std::size_t ended = 0;
        std::size_t bad = n; // first malformed mate, n if none
        for (std::size_t m = 0; m < n; ++m) {
            Mate& mate = mates_[m];
            const Status status = mate.stream->next(mate.record, &mate.error);
            ended += status == Status::End ? 1 : 0;
            if (status == Status::Malformed && bad == n) bad = m;
        }
        if (ended > 0) {
            if (ended != n) {
                throw std::runtime_error(
                    "paired inputs desynchronized: mate files yield "
                    "different record counts");
            }
            input_done_ = true;
            // Flush surviving buckets oldest-record-first so downstream
            // reordering stays shallow.
            while (!buckets_.empty()) flush_oldest();
            break;
        }
        if (bad < n) {
            // Drop the whole tuple so the mates stay record-synchronized.
            if (config_.on_malformed == OnMalformed::Fail) {
                const std::string mate =
                    n > 1 ? " (mate " + std::to_string(bad + 1) + ")" : "";
                throw std::runtime_error(
                    "record " +
                    std::to_string(mates_[bad].stream->records_seen()) +
                    mate + ": " + mates_[bad].error);
            }
            ++stats_.dropped_malformed;
            stats_.last_error = mates_[bad].error;
            check_names_ = n > 1;
            continue;
        }
        accept();
    }

    if (ready_.empty()) return false;
    Bucket& bucket = ready_.front();
    for (std::size_t m = 0; m < n; ++m) *out[m] = std::move(bucket.mates[m]);
    ordinals = std::move(bucket.ordinals);
    ready_.pop_front();
    ++stats_.batches;
    return true;
}

} // namespace detail

StreamingFastxReader::StreamingFastxReader(std::istream& in,
                                           StreamingReaderConfig config)
    : BucketingReader(std::array{&in}, config) {}

bool StreamingFastxReader::next_bucket(OrderedBatch& out) {
    return next(std::array{&out.batch}, out.ordinals);
}

PairedStreamingReader::PairedStreamingReader(std::istream& in1,
                                             std::istream& in2,
                                             StreamingReaderConfig config)
    : BucketingReader(std::array{&in1, &in2}, config) {}

bool PairedStreamingReader::next_bucket(OrderedPairBatch& out) {
    return next(std::array{&out.first, &out.second}, out.ordinals);
}

} // namespace repute::pipeline
