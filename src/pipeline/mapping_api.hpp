#pragma once
// The unified mapping API — one session, many requests.
//
// MappingSession is the public construction path for the whole tool: it
// owns an index (built in-process from FASTA, mmap'd zero-copy from a
// .rix container, or adopted from an in-memory MultiReference), a device
// platform and a pool of mappers, and serves MapRequests — FASTQ/FASTA
// payload streams in, SAM bytes out — through one code path shared by
// the one-shot CLI (`repute map`), the daemon (`repute serve`), the
// benches and the tests. run_pipeline (mapping_pipeline.hpp) is the
// streaming engine underneath, for single-end and paired requests
// alike: every request's reads enter through the length-bucketing
// readers (genomics::FastxRecordStream underneath) and its SAM leaves
// through SamEmitter — there is no parse-everything-then-map path; a
// caller wanting one batch sets reader.batch_size to at least the read
// count. Constructing mappers by hand via make_repute/make_coral is for
// code that needs to bypass the session (kernel benches, device-level
// tests).
//
// Concurrency: map() is safe to call from many threads at once — that is
// the daemon's request path. The mapper pool is the parallelism ceiling;
// each request asks for `map_workers` mappers and is granted a
// fair-share slice, min(want, available, pool/active_requests), blocking
// only until at least one mapper is free. A single-request caller with
// want == pool gets every mapper; N concurrent requests converge on
// pool/N each — no request starves and no mapper idles while work waits.

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "core/sharded_mapper.hpp"
#include "genomics/multi_reference.hpp"
#include "index/fm_index.hpp"
#include "index/rix.hpp"
#include "index/rixm.hpp"
#include "ocl/platform.hpp"
#include "pipeline/mapping_pipeline.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"

namespace repute::pipeline {

/// Session-level knobs: everything that shapes the mappers and the
/// index, fixed for the session's lifetime. Per-request knobs (delta,
/// batching, pairing) live on MapRequest.
struct SessionConfig {
    /// "repute" (DP seeder, the paper's tool) or "coral" (heuristic
    /// seeder baseline).
    std::string flavor = "repute";
    std::uint32_t s_min = 14;
    std::uint32_t max_locations = 100;
    /// Read by nothing: verification has one path. Kept because the
    /// end-to-end benchmark still assigns it.
    bool simd_verification = true;
    core::ScheduleMode schedule = core::ScheduleMode::StaticSplit;
    core::SchedulerConfig scheduler;
    std::string platform = "system1";
    std::vector<std::string> devices{"i7-2600"};
    /// Host<->device link model applied to every selected device when
    /// modeled (bandwidth + latency; see ocl::TransferSpec). The default
    /// leaves transfers unmodeled — staging is accounted in bytes but
    /// costs no modeled time.
    ocl::TransferSpec transfer;
    /// Stage chunk k+1 while chunk k executes (double-buffered staging).
    /// Only affects devices with a modeled TransferSpec; output is
    /// byte-identical either way.
    bool double_buffer = true;
    /// Mapper pool size = the max concurrent map workers across all
    /// requests (the daemon's parallelism ceiling).
    std::size_t mapper_pool = 1;
    /// Index-build knobs (from_fasta / from_multi only; a .rix file
    /// fixes them at `repute index build` time).
    std::uint32_t sa_sample = 4;
    std::uint32_t checkpoint_every = 128;
    std::uint32_t qgram_length = index::FmIndex::kDefaultQgramLength;
};

/// One mapping request: a payload stream (plus optional mates), the
/// per-request config, and an output stream for the SAM bytes.
struct MapRequest {
    std::istream* reads = nullptr;  ///< FASTQ/FASTA payload (required)
    std::istream* reads2 = nullptr; ///< second mates -> paired-end
    std::uint32_t delta = 5;
    bool cigar = true;
    /// Mappers wanted; the grant is fair-share clamped (see above).
    std::size_t map_workers = 1;
    std::size_t queue_depth = 4;
    StreamingReaderConfig reader;
    core::PairedConfig pair;
    /// Metrics label: requests carrying a tenant increment
    /// `serve.tenant.<tenant>.requests` / `.reads` counters.
    std::string tenant;
};

struct MapResponse {
    PipelineStats pipeline;
    SamEmitter::Stats emitted;
    std::size_t reads_in = 0;
    std::size_t dropped = 0;
    std::size_t workers_granted = 0;
    double wall_seconds = 0.0;
    /// Host<->device traffic this request staged/drained. Counted even
    /// when transfers are unmodeled.
    std::uint64_t xfer_bytes_staged = 0;
    std::uint64_t xfer_bytes_drained = 0;
};

class MappingSession {
public:
    /// Builds reference + index in-process from a (multi-sequence)
    /// FASTA file.
    static std::unique_ptr<MappingSession> from_fasta(
        const std::string& fasta_path, SessionConfig config = {});

    /// Maps a prebuilt index zero-copy: a .rix container (index/rix.hpp)
    /// or a .rixm shard manifest (index/rixm.hpp) — dispatched by file
    /// magic, so callers pass either path through the same flag. A
    /// manifest mmaps every shard and builds sharded mappers whose
    /// per-device peak residency is one shard image, not the whole
    /// index.
    static std::unique_ptr<MappingSession> from_rix(
        const std::string& rix_path, SessionConfig config = {});

    /// Adopts an in-memory reference set and builds its index — the
    /// bench/test fixture path.
    static std::unique_ptr<MappingSession> from_multi(
        genomics::MultiReference multi, SessionConfig config = {});

    MappingSession(const MappingSession&) = delete;
    MappingSession& operator=(const MappingSession&) = delete;

    /// Maps one request, streaming SAM into `sam_out` (header included).
    /// Thread-safe; blocks while the mapper pool is exhausted. Throws on
    /// malformed input under OnMalformed::Fail and on I/O errors; the
    /// granted mappers are released either way.
    MapResponse map(const MapRequest& request, std::ostream& sam_out);

    const genomics::MultiReference& multi() const noexcept {
        return *multi_;
    }
    /// The monolithic FM-index. Throws std::logic_error for sharded
    /// sessions — there is no single index; use sharded().
    const index::FmIndex& fm() const;
    const SessionConfig& config() const noexcept { return config_; }

    /// True when the index is a zero-copy view over .rix mapping(s)
    /// (monolithic container or shard set).
    bool is_mapped() const noexcept {
        return mapped_.has_value() || sharded_.has_value();
    }

    /// True when the session maps through a .rixm shard set.
    bool is_sharded() const noexcept { return sharded_.has_value(); }
    /// The shard set (only when is_sharded()).
    const index::ShardedIndex& sharded() const { return *sharded_; }

    /// Footprint split (exported as index.mapped_bytes /
    /// index.resident_bytes gauges when a metrics registry is
    /// installed): mapped = demand-paged file bytes, resident = private
    /// heap (whole index when built in-process).
    std::size_t mapped_bytes() const noexcept;
    std::size_t resident_bytes() const noexcept;

    /// Seconds the index source took (build or mmap+checksum) — the
    /// load-speedup bench reads this.
    double index_seconds() const noexcept { return index_seconds_; }

private:
    MappingSession() = default;

    void build_pool();
    void export_footprint_metrics() const;

    std::vector<core::Mapper*> acquire(std::size_t want);
    void release(const std::vector<core::Mapper*>& granted);

    SessionConfig config_;
    std::optional<index::MappedIndex> mapped_;
    std::optional<index::ShardedIndex> sharded_;
    std::optional<genomics::MultiReference> owned_multi_;
    std::optional<index::FmIndex> owned_fm_;
    const genomics::MultiReference* multi_ = nullptr;
    const index::FmIndex* fm_ = nullptr;
    double index_seconds_ = 0.0;

    std::optional<ocl::Platform> platform_;
    std::vector<std::unique_ptr<core::Mapper>> pool_;
    std::mutex pool_mutex_;
    std::condition_variable pool_cv_;
    std::vector<core::Mapper*> free_;
    std::size_t active_requests_ = 0;
};

} // namespace repute::pipeline
