// repute — read-mapping toolkit CLI.
//
//   repute index build --ref ref.fa --out ref.rix   build a .rix container
//   repute map --ref ref.fa | --index ref.rix ...   one-shot mapping
//   repute serve --index ref.rix --socket PATH      persistent daemon
//   repute client --socket PATH --reads r.fq ...    submit to a daemon
//
// Every mapping path (map / serve / client-via-serve) goes through one
// pipeline::MappingSession, so the SAM bytes are identical whether the
// index was built in-process, mmap'd from a .rix container, or queried
// over the daemon socket — the serve CI tier diffs exactly that.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/multi_reference.hpp"
#include "index/fm_index.hpp"
#include "index/rix.hpp"
#include "index/rixm.hpp"
#include "index/shard_plan.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "pipeline/mapping_api.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace repute;

namespace {

constexpr const char* kUsage = R"(repute — OpenCL-style heterogeneous read mapper

usage: repute <command> [options]

commands:
  index build   build a mmap-able .rix index container from FASTA
  map           map reads one-shot (build index in-process or mmap one)
  serve         run the persistent mapping daemon on a Unix socket
  client        submit reads to a running daemon

run `repute <command> --help` for the command's options; an option
the command does not know is refused (exit status 2).
)";

constexpr const char* kIndexUsage = R"(repute index build — precompute a mmap-able index container

required:
  --ref FILE            multi-sequence FASTA reference
  --out FILE            output .rix path
options:
  --sa-sample N         suffix-array sampling interval (default 4)
  --checkpoint N        occ checkpoint spacing, pow2 >= 32 (default 128)
  --qgram N             q-gram jump table depth, 0 = none (default 8)
sharding (write a .rixm manifest + per-shard .rix files instead):
  --shards N            split the reference into N contig-granular
                        shards (clamped to the contig count)
  --shard-budget BYTES  or: pack shards under a per-shard device image
                        budget (contigs are never split)
  --overlap N           overhang indexed into neighbour shards; must be
                        >= read_length + delta at map time (default 512)
  --jobs N              parallel shard index builds (default 1)

`repute map --index` and `repute serve --index` accept the .rixm
manifest path; per-device residency stays one shard image. Sharded
output matches the monolithic index on the shard tests' fixtures, but
each shard plans seeds on its own k-mer frequencies, so on
repeat-rich genomes a few reads report a locus at a shifted position
(DESIGN.md 5g; ROADMAP "One mapping per alignment locus").
)";

constexpr const char* kMapUsage = R"(repute map — one-shot streaming read mapping

index source (exactly one):
  --ref FILE            FASTA reference: build the index in-process
  --index FILE          prebuilt .rix container or .rixm shard manifest:
                        mmap zero-copy
required:
  --reads FILE          FASTA/FASTQ reads (format auto-detected;
                        .gz input inflated transparently)
options:
  --reads2 FILE         second-mate file: paired-end mapping + rescue
                        (.gz accepted, independently of --reads)
  --out FILE            SAM output path, '-' for stdout (default out.sam)
  --delta N             edit-distance budget (default 5)
  --smin N              minimum seed k-mer length (default 14)
  --max-locations N     mappings reported per read (default 100)
  --cigar BOOL          host-side re-alignment + CIGAR (default true);
                        single-end reads only: paired records (--reads2)
                        keep CIGAR '*'
pipeline:
  --batch-size N        reads per batch (default 4096)
  --queue-depth N       batches buffered between stages (default 4)
  --threads N           concurrent map workers (default 1); they submit
                        to per-device pools of min(compute units,
                        hardware threads) threads, so --threads 1
                        still uses several cores
  --on-malformed MODE   drop (count and continue) | fail (default drop)
  --length-grid N       length-class quantization for mixed input:
                        reads bucket by length rounded up to a multiple
                        of N, padded virtually within a class
                        (default 16)
  --insert-min/--insert-max
                        paired-end insert bounds (default 200/600)
devices:
  --platform NAME       system1 (i7 + 2x GTX590) | system2 (HiKey970)
  --devices LIST        comma-separated device names (default i7-2600)
  --schedule MODE       static | dynamic work-stealing (default static)
transfers:
  --xfer-gbps X         model host<->device links at X GB/s (default:
                        transfers are free)
  --xfer-latency-us X   per-transfer latency in microseconds (default 0)
  --no-double-buffer    serialize staging (stage+compute+drain per chunk
                        instead of overlapping); output is identical
observability:
  --trace FILE          write Chrome trace JSON + per-stage summary
  --xfer-trace          print the host<->device transfer summary
                        (per-buffer bytes, overlap ratio) to stderr
)";

constexpr const char* kServeUsage = R"(repute serve — persistent mapping daemon (Unix-domain socket)

index source (exactly one):
  --index FILE          prebuilt .rix container or .rixm shard manifest:
                        mmap zero-copy (a manifest mmaps every shard)
  --ref FILE            FASTA reference: build the index in-process
required:
  --socket PATH         Unix socket path to listen on
options:
  --handlers N          concurrent request handlers (default 2)
  --pending N           admission queue depth beyond handlers (default 8)
  --mappers N           mapper pool = max total map workers (default =
                        handlers)
  --smin/--max-locations/--platform/--devices/--schedule
  --xfer-gbps/--xfer-latency-us/--no-double-buffer
                        session-level mapping knobs, as in `repute map`

SIGTERM/SIGINT drain in-flight requests, print the metrics summary
(request latency p50/p99 included) to stderr, and exit 0.
)";

constexpr const char* kClientUsage = R"(repute client — submit reads to a running daemon

required:
  --socket PATH         daemon socket path
  --reads FILE          FASTA/FASTQ reads (.gz shipped as-is; the
                        daemon inflates)
options:
  --reads2 FILE         second-mate file (paired-end)
  --out FILE            SAM output path, '-' for stdout (default -)
  --delta N             edit-distance budget (default 5)
  --cigar BOOL          request CIGAR annotation (default true);
                        single-end reads only: paired records (--reads2)
                        keep CIGAR '*'
  --map-workers N       mappers requested (fair-share granted, default 1)
  --batch-size N        reads per batch (default 4096)
  --queue-depth N       pipeline queue depth (default 4)
  --length-grid N       length-class quantization grid (default 16)
  --on-malformed MODE   drop | fail (default drop)
  --insert-min/--insert-max
                        paired-end insert bounds (default 200/600)
  --tenant NAME         metrics label for per-tenant accounting
)";

struct CliError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// A command line the command cannot accept as given: exit status 2,
/// like a missing required option.
struct UsageError : CliError {
    using CliError::CliError;
};

// The options each command reads. Anything else is refused by name, so
// a misspelled option fails instead of leaving its default in force.
constexpr std::string_view kIndexOptions[] = {
    "help",  "ref",    "out",          "sa-sample", "checkpoint",
    "qgram", "shards", "shard-budget", "overlap",   "jobs"};
/// session_config_from's knobs, shared by `map` and `serve`.
constexpr std::string_view kSessionOptions[] = {
    "smin",     "max-locations", "platform",        "devices",
    "schedule", "xfer-gbps",     "xfer-latency-us", "no-double-buffer"};
constexpr std::string_view kMapOptions[] = {
    "help",        "ref",          "index",       "reads",
    "reads2",      "out",          "delta",       "cigar",
    "batch-size",  "queue-depth",  "threads",     "on-malformed",
    "length-grid", "insert-min",   "insert-max",  "trace",
    "xfer-trace",
    "read-length"}; // refused with its own message by reject_read_length
constexpr std::string_view kServeOptions[] = {
    "help", "index", "ref", "socket", "handlers", "pending", "mappers"};
constexpr std::string_view kClientOptions[] = {
    "help",        "socket",      "reads",       "reads2",
    "out",         "delta",       "cigar",       "map-workers",
    "batch-size",  "queue-depth", "length-grid", "on-malformed",
    "insert-min",  "insert-max",  "tenant",      "read-length"};

/// Throws UsageError naming every option that neither `known` nor
/// `shared` declares.
void reject_unknown(const util::Args& args, const std::string& command,
                    std::span<const std::string_view> known,
                    std::span<const std::string_view> shared = {}) {
    std::vector<std::string_view> declared(known.begin(), known.end());
    declared.insert(declared.end(), shared.begin(), shared.end());
    const auto unknown = args.unknown(declared);
    if (unknown.empty()) return;
    std::string names;
    for (const auto& name : unknown) {
        names += (names.empty() ? "--" : ", --") + name;
    }
    throw UsageError("repute " + command + ": unknown option" +
                     (unknown.size() > 1 ? "s " : " ") + names +
                     " (see `repute " + command + " --help`)");
}

std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const auto comma = csv.find(',', start);
        const auto end = comma == std::string::npos ? csv.size() : comma;
        if (end > start) out.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

pipeline::OnMalformed parse_on_malformed(const std::string& mode) {
    if (mode == "drop") return pipeline::OnMalformed::Drop;
    if (mode == "fail") return pipeline::OnMalformed::Fail;
    throw CliError("--on-malformed must be 'drop' or 'fail', got: " +
                   mode);
}

/// `map` and `client` once took --read-length to pin one length class;
/// every length now maps, so the flag is refused rather than ignored.
void reject_read_length(const util::Args& args) {
    if (args.has("read-length")) {
        throw CliError("--read-length was removed: reads of every length "
                       "are mapped, bucketed by --length-grid");
    }
}

/// Session-level knobs shared by `map` and `serve`.
pipeline::SessionConfig session_config_from(const util::Args& args) {
    pipeline::SessionConfig config;
    config.s_min = static_cast<std::uint32_t>(args.get_int("smin", 14));
    config.max_locations =
        static_cast<std::uint32_t>(args.get_int("max-locations", 100));
    config.platform = args.get_string("platform", "system1");
    config.devices = split_csv(args.get_string("devices", "i7-2600"));
    const std::string schedule = args.get_string("schedule", "static");
    if (schedule == "dynamic") {
        config.schedule = core::ScheduleMode::Dynamic;
    } else if (schedule != "static") {
        throw CliError("--schedule must be 'static' or 'dynamic', got: " +
                       schedule);
    }
    const double gbps = args.get_double("xfer-gbps", 0.0);
    if (gbps < 0.0) throw CliError("--xfer-gbps must be >= 0");
    config.transfer.bytes_per_second = gbps * 1e9;
    config.transfer.latency_seconds =
        args.get_double("xfer-latency-us", 0.0) * 1e-6;
    config.double_buffer = !args.get_bool("no-double-buffer", false);
    return config;
}

/// Builds the session from --index (mmap) or --ref (in-process),
/// reporting source + load time to stderr.
std::unique_ptr<pipeline::MappingSession> open_session(
    const util::Args& args, pipeline::SessionConfig config) {
    const std::string rix = args.get_string("index", "");
    const std::string fasta = args.get_string("ref", "");
    if (rix.empty() == fasta.empty()) {
        throw CliError("exactly one of --ref or --index is required");
    }
    std::unique_ptr<pipeline::MappingSession> session;
    if (!rix.empty()) {
        session = pipeline::MappingSession::from_rix(rix,
                                                     std::move(config));
        std::fprintf(stderr,
                     "index mapped from %s in %.3f s "
                     "(%.1f MB mapped, %.1f MB resident)\n",
                     rix.c_str(), session->index_seconds(),
                     static_cast<double>(session->mapped_bytes()) / 1e6,
                     static_cast<double>(session->resident_bytes()) /
                         1e6);
    } else {
        session = pipeline::MappingSession::from_fasta(fasta,
                                                       std::move(config));
        std::fprintf(stderr,
                     "reference: %zu sequence(s), %zu bp; index built "
                     "in %.1f s (%.1f MB)\n",
                     session->multi().sequence_count(),
                     session->multi().concatenated().size(),
                     session->index_seconds(),
                     static_cast<double>(session->resident_bytes()) /
                         1e6);
    }
    return session;
}

/// RAII --trace / --xfer-trace support (the CLI twin of
/// bench::ScopedTrace). --xfer-trace alone still installs the session so
/// transfer metrics have somewhere to land.
class TraceScope {
public:
    TraceScope(const std::string& path, bool xfer_summary)
        : path_(path), xfer_summary_(xfer_summary) {
        if (!path_.empty() || xfer_summary_) {
            session_ = std::make_unique<obs::TraceSession>();
        }
    }
    ~TraceScope() {
        if (!session_) return;
        if (!path_.empty()) {
            const auto json =
                obs::chrome_trace_json(session_->recorder());
            std::ofstream out(path_, std::ios::binary);
            if (out) {
                out.write(json.data(),
                          static_cast<std::streamsize>(json.size()));
                std::fprintf(stderr, "trace written to %s (%zu bytes)\n",
                             path_.c_str(), json.size());
            } else {
                std::fprintf(stderr, "ERROR: cannot write trace to %s\n",
                             path_.c_str());
            }
            std::fprintf(stderr, "%s",
                         obs::stage_summary(session_->recorder(),
                                            &session_->registry())
                             .c_str());
        }
        if (xfer_summary_) {
            const auto summary =
                obs::xfer_summary(session_->registry());
            std::fprintf(stderr, "%s",
                         summary.empty()
                             ? "no host<->device transfers recorded\n"
                             : summary.c_str());
        }
    }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

private:
    std::string path_;
    bool xfer_summary_ = false;
    std::unique_ptr<obs::TraceSession> session_;
};

// ------------------------------------------------------- index build

int run_index_build(const util::Args& args) {
    reject_unknown(args, "index build", kIndexOptions);
    const std::string fasta = args.get_string("ref", "");
    const std::string out_path = args.get_string("out", "");
    if (args.has("help") || fasta.empty() || out_path.empty()) {
        std::fputs(kIndexUsage, args.has("help") ? stdout : stderr);
        return args.has("help") ? 0 : 2;
    }
    const auto sa_sample =
        static_cast<std::uint32_t>(args.get_int("sa-sample", 4));
    const auto checkpoint =
        static_cast<std::uint32_t>(args.get_int("checkpoint", 128));
    const auto qgram = static_cast<std::uint32_t>(
        args.get_int("qgram", index::FmIndex::kDefaultQgramLength));

    util::Stopwatch timer;
    const auto records = genomics::read_fasta_file(fasta);
    if (records.empty()) throw CliError("no sequences in " + fasta);
    const genomics::MultiReference multi(records);
    std::fprintf(stderr, "reference: %zu sequence(s), %zu bp (%.1f s)\n",
                 multi.sequence_count(), multi.concatenated().size(),
                 timer.seconds());

    const auto shards =
        static_cast<std::uint32_t>(args.get_int("shards", 0));
    const auto shard_budget =
        static_cast<std::uint64_t>(args.get_int("shard-budget", 0));
    if (shards > 0 || shard_budget > 0) {
        index::ShardBuildConfig build_config;
        build_config.plan.shard_count = shards;
        build_config.plan.budget_bytes = shard_budget;
        build_config.plan.overlap =
            static_cast<std::uint32_t>(args.get_int("overlap", 512));
        build_config.plan.sa_sample = sa_sample;
        build_config.plan.checkpoint_every = checkpoint;
        build_config.plan.qgram_length = qgram;
        build_config.jobs =
            static_cast<std::uint32_t>(args.get_int("jobs", 1));
        const auto result =
            index::build_sharded_index(multi, out_path, build_config);
        std::fprintf(stderr,
                     "%zu shard(s) built in %.2f s with %u job(s), "
                     "manifest %s (largest shard ~%.1f MB)\n",
                     result.shard_paths.size(), result.build_seconds,
                     build_config.jobs, result.manifest_path.c_str(),
                     static_cast<double>(
                         result.plan.max_estimated_bytes) /
                         1e6);
        return 0;
    }

    timer.reset();
    const index::FmIndex fm(multi.concatenated(), sa_sample, checkpoint,
                            qgram);
    const double build_seconds = timer.seconds();
    timer.reset();
    index::write_rix(out_path, multi, fm);
    std::fprintf(stderr,
                 "index built in %.2f s, %s written in %.2f s "
                 "(%.1f MB in memory)\n",
                 build_seconds, out_path.c_str(), timer.seconds(),
                 static_cast<double>(fm.memory_bytes()) / 1e6);
    return 0;
}

// ----------------------------------------------------------------- map

int run_map(const util::Args& args) {
    reject_read_length(args);
    reject_unknown(args, "map", kMapOptions, kSessionOptions);
    const bool has_source = args.has("ref") || args.has("index");
    const std::string reads_path = args.get_string("reads", "");
    if (args.has("help") || !has_source || reads_path.empty()) {
        std::fputs(kMapUsage, args.has("help") ? stdout : stderr);
        return args.has("help") ? 0 : 2;
    }
    const TraceScope trace(args.get_string("trace", ""),
                           args.get_bool("xfer-trace", false));

    auto config = session_config_from(args);
    config.mapper_pool = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("threads", 1), 1));
    const auto session = open_session(args, std::move(config));

    pipeline::MapRequest request;
    request.delta =
        static_cast<std::uint32_t>(args.get_int("delta", 5));
    request.cigar = args.get_bool("cigar", true);
    request.map_workers = session->config().mapper_pool;
    request.queue_depth =
        static_cast<std::size_t>(args.get_int("queue-depth", 4));
    request.reader.batch_size =
        static_cast<std::size_t>(args.get_int("batch-size", 4096));
    request.reader.length_grid =
        static_cast<std::size_t>(args.get_int("length-grid", 16));
    request.reader.on_malformed =
        parse_on_malformed(args.get_string("on-malformed", "drop"));
    request.pair.min_insert = static_cast<std::uint32_t>(
        args.get_int("insert-min", request.pair.min_insert));
    request.pair.max_insert = static_cast<std::uint32_t>(
        args.get_int("insert-max", request.pair.max_insert));

    std::ifstream reads_file(reads_path, std::ios::binary);
    if (!reads_file) throw CliError("cannot read " + reads_path);
    request.reads = &reads_file;
    std::ifstream reads2_file;
    const std::string reads2_path = args.get_string("reads2", "");
    if (!reads2_path.empty()) {
        reads2_file.open(reads2_path, std::ios::binary);
        if (!reads2_file) throw CliError("cannot read " + reads2_path);
        request.reads2 = &reads2_file;
    }

    const std::string out_path = args.get_string("out", "out.sam");
    std::ofstream out_file;
    const bool to_stdout = out_path == "-";
    if (!to_stdout) {
        out_file.open(out_path, std::ios::binary);
        if (!out_file) throw CliError("cannot write " + out_path);
    }
    std::ostream& out = to_stdout ? std::cout : out_file;

    const auto response = session->map(request, out);

    std::fprintf(stderr,
                 "%zu reads in (%zu dropped) -> %zu SAM records "
                 "(%zu boundary-dropped, %zu cigar-dropped) in %.2f s "
                 "(%.0f reads/s)\n",
                 response.reads_in, response.dropped,
                 response.emitted.records,
                 response.emitted.dropped_boundary,
                 response.emitted.dropped_cigar, response.wall_seconds,
                 response.wall_seconds > 0
                     ? static_cast<double>(response.emitted.reads) /
                           response.wall_seconds
                     : 0.0);
    if (response.pipeline.units > 0) {
        std::fprintf(stderr, "%s", response.pipeline.format().c_str());
    }
    return 0;
}

// --------------------------------------------------------------- serve

std::atomic<serve::Server*> g_server{nullptr};

void handle_shutdown_signal(int) {
    if (auto* server = g_server.load()) server->stop();
}

int run_serve(const util::Args& args) {
    reject_unknown(args, "serve", kServeOptions, kSessionOptions);
    const std::string socket_path = args.get_string("socket", "");
    const bool has_source = args.has("ref") || args.has("index");
    if (args.has("help") || socket_path.empty() || !has_source) {
        std::fputs(kServeUsage, args.has("help") ? stdout : stderr);
        return args.has("help") ? 0 : 2;
    }

    serve::ServerConfig server_config;
    server_config.socket_path = socket_path;
    server_config.handlers =
        static_cast<std::size_t>(args.get_int("handlers", 2));
    server_config.pending =
        static_cast<std::size_t>(args.get_int("pending", 8));

    auto config = session_config_from(args);
    config.mapper_pool = static_cast<std::size_t>(args.get_int(
        "mappers",
        static_cast<std::int64_t>(server_config.handlers)));

    // Metrics live for the daemon's lifetime; the shutdown summary
    // includes per-request latency quantiles.
    obs::TraceSession metrics_session;
    const auto session = open_session(args, std::move(config));

    serve::Server server(*session, server_config);
    g_server.store(&server);
    std::signal(SIGTERM, handle_shutdown_signal);
    std::signal(SIGINT, handle_shutdown_signal);
    std::fprintf(stderr,
                 "serving on %s (%zu handlers, %zu pending, %zu "
                 "mappers)\n",
                 socket_path.c_str(), server_config.handlers,
                 server_config.pending, session->config().mapper_pool);

    const std::size_t handled = server.run();
    g_server.store(nullptr);

    const auto latency = metrics_session.registry()
                             .histogram("session.request_seconds")
                             .snapshot();
    std::fprintf(stderr,
                 "drained: %zu request(s) served; latency p50=%.3gs "
                 "p99=%.3gs\n",
                 handled, latency.quantile(0.5), latency.quantile(0.99));
    std::fprintf(stderr, "%s",
                 metrics_session.registry().format().c_str());
    return 0;
}

// -------------------------------------------------------------- client

int run_client_cmd(const util::Args& args) {
    reject_read_length(args);
    reject_unknown(args, "client", kClientOptions);
    const std::string socket_path = args.get_string("socket", "");
    const std::string reads_path = args.get_string("reads", "");
    if (args.has("help") || socket_path.empty() || reads_path.empty()) {
        std::fputs(kClientUsage, args.has("help") ? stdout : stderr);
        return args.has("help") ? 0 : 2;
    }

    const auto slurp = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        if (!in) throw CliError("cannot read " + path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };

    serve::WireRequest request;
    request.delta =
        static_cast<std::uint32_t>(args.get_int("delta", 5));
    request.cigar = args.get_bool("cigar", true) ? 1 : 0;
    request.fail_on_malformed =
        args.get_string("on-malformed", "drop") == "fail" ? 1 : 0;
    request.map_workers =
        static_cast<std::uint32_t>(args.get_int("map-workers", 1));
    request.batch_size =
        static_cast<std::uint32_t>(args.get_int("batch-size", 4096));
    request.queue_depth =
        static_cast<std::uint32_t>(args.get_int("queue-depth", 4));
    request.length_grid =
        static_cast<std::uint32_t>(args.get_int("length-grid", 16));
    request.min_insert =
        static_cast<std::uint32_t>(args.get_int("insert-min", 200));
    request.max_insert =
        static_cast<std::uint32_t>(args.get_int("insert-max", 600));
    request.tenant = args.get_string("tenant", "");
    request.reads = slurp(reads_path);
    const std::string reads2_path = args.get_string("reads2", "");
    if (!reads2_path.empty()) request.reads2 = slurp(reads2_path);

    const std::string out_path = args.get_string("out", "-");
    std::ofstream out_file;
    const bool to_stdout = out_path == "-";
    if (!to_stdout) {
        out_file.open(out_path, std::ios::binary);
        if (!out_file) throw CliError("cannot write " + out_path);
    }
    std::ostream& out = to_stdout ? std::cout : out_file;

    const auto result =
        serve::run_client(socket_path, request, out);
    std::fprintf(stderr, "%s\n", result.summary.c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        if (argc >= 2 && argv[1][0] != '-') {
            const std::string command = argv[1];
            const util::Args args(argc - 1, argv + 1);
            if (command == "index") {
                if (args.positional().empty() ||
                    args.positional().front() != "build") {
                    std::fputs(kIndexUsage, stderr);
                    return 2;
                }
                return run_index_build(args);
            }
            if (command == "map") return run_map(args);
            if (command == "serve") return run_serve(args);
            if (command == "client") return run_client_cmd(args);
            std::fprintf(stderr, "repute: unknown command '%s'\n\n%s",
                         command.c_str(), kUsage);
            return 2;
        }
        // No command: usage, on stdout only when asked for with --help.
        const bool help = argc >= 2 && util::Args(argc, argv).has("help");
        std::fputs(kUsage, help ? stdout : stderr);
        return help ? 0 : 2;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "repute: %s\n", e.what());
        return 1;
    }
}
