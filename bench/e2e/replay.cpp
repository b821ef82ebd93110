// Traced runs: the workload's inputs replayed layer by layer in this
// process, with a span around every call into a layer. The replay
// writes the same SAM bytes as the CLI (checked), so the per-layer
// numbers describe the work the timed runs measure.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/cigar.hpp"
#include "core/kernels.hpp"
#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "core/sharded_mapper.hpp"
#include "filter/candidates.hpp"
#include "genomics/fastx.hpp"
#include "ocl/platform.hpp"
#include "pipeline/mapping_api.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"
#include "proc.hpp"
#include "runs.hpp"
#include "serve/protocol.hpp"
#include "serve_load.hpp"
#include "tracer.hpp"
#include "util/gzip_stream.hpp"

namespace e2e {

using namespace repute;

namespace {

/// Mappers built from a session's index with the session's config,
/// exactly as MappingSession builds its pool.
struct Mappers {
    ocl::Platform platform;
    std::unique_ptr<core::Mapper> mapper;
    core::HeterogeneousMapper* monolithic = nullptr;
    std::size_t shards = 1;
};

std::unique_ptr<Mappers> make_mappers(const pipeline::MappingSession& session) {
    const auto& config = session.config();
    auto m = std::make_unique<Mappers>(Mappers{
        config.platform == "system2" ? ocl::Platform::system2()
                                     : ocl::Platform::system1(),
        nullptr, nullptr, 1});
    std::vector<core::DeviceShare> shares;
    for (const auto& name : config.devices) {
        shares.push_back({&m->platform.device(name), 1.0});
    }
    core::HeterogeneousMapperConfig mapper_config;
    mapper_config.kernel.s_min = config.s_min;
    mapper_config.kernel.max_locations_per_read = config.max_locations;
    mapper_config.kernel.simd_verification = config.simd_verification;
    mapper_config.schedule = config.schedule;
    mapper_config.scheduler = config.scheduler;
    mapper_config.double_buffer = config.double_buffer;
    if (session.is_sharded()) {
        auto views = core::shard_views_of(session.sharded());
        m->shards = views.size();
        m->mapper = core::make_sharded_repute(std::move(views), shares,
                                              mapper_config);
    } else {
        auto mono = core::make_repute(session.multi().concatenated(),
                                      session.fm(), shares, mapper_config);
        m->monolithic = mono.get();
        m->mapper = std::move(mono);
    }
    return m;
}

/// Counts summed over every replay pass.
struct Counts {
    std::size_t passes = 0;
    std::size_t shards = 0;
    std::size_t reads = 0;  ///< reads plus mates
    std::size_t bases = 0;
    std::size_t pad_bases = 0;
    std::size_t batches = 0;
    std::size_t length_classes = 0;
    std::size_t records = 0;
    std::size_t max_parked = 0;
    std::size_t mappings = 0;
    std::size_t mapped = 0;
    std::size_t pairs = 0, proper = 0, rescued = 0;
    std::size_t parsed = 0;
    std::size_t cigar_calls = 0;
    /// Reads mapped differently through ref.rix and ref.rixm.
    std::size_t shard_mismatches = 0;
    double sam_bytes = 0.0;
    double inflated_bytes = 0.0;
    double modeled_s = 0.0;
    double staged = 0.0, drained = 0.0;
    std::uint64_t fm_extends = 0, dp_cells = 0, qgram_jumps = 0;
    std::uint64_t located_hits = 0;
    core::StageTotals stages;
    std::vector<double> ttfb_s; ///< first SAM byte of each daemon call
};

/// The single-thread kernel replay of one read: per strand, seed
/// selection then candidate gathering; then the whole work-item (which
/// repeats both and verifies); then CIGAR re-alignment of every
/// mapping it returns. Times are summed per batch.
class KernelReplay {
public:
    KernelReplay(const core::HeterogeneousMapper& mapper,
                 const pipeline::MappingSession& session, std::uint32_t delta)
        : fm_(session.fm()), reference_(session.multi().concatenated()),
          seeder_(mapper.seeder()), kernel_(mapper.config().kernel),
          delta_(delta) {
        candidate_config_.max_hits_per_seed = kernel_.max_hits_per_seed;
        candidate_config_.collapse_diagonals = kernel_.collapse_candidates;
        candidate_config_.coalesce_windows = kernel_.coalesce_windows;
    }

    struct Batch {
        double select_s = 0, gather_s = 0, workitem_s = 0, cigar_s = 0;
        std::size_t reads = 0, cigar_calls = 0;
    };

    void replay(const genomics::Read& read, Batch& batch, Counts& counts) {
        strand(read.codes, counts, batch);
        read.reverse_complement(rc_);
        strand(rc_, counts, batch);
        const double t1 = now_s();
        core::map_read_workitem(fm_, reference_, seeder_, read, delta_,
                                kernel_, out_, scratch_, &counts.stages);
        const double t2 = now_s();
        for (const auto& m : out_) {
            [[maybe_unused]] const auto annotated =
                core::annotate_mapping(reference_, read, m, delta_);
        }
        const double t3 = now_s();
        batch.workitem_s += t2 - t1;
        batch.cigar_s += t3 - t2;
        batch.cigar_calls += out_.size();
        ++batch.reads;
    }

private:
    void strand(std::span<const std::uint8_t> codes, Counts& counts,
                Batch& batch) {
        const double t0 = now_s();
        seeder_.select(fm_, codes, delta_, plan_, seed_scratch_);
        const double t1 = now_s();
        filter::gather_candidates(fm_, plan_,
                                  static_cast<std::uint32_t>(codes.size()),
                                  delta_, candidate_config_, candidates_,
                                  hits_);
        const double t2 = now_s();
        batch.select_s += t1 - t0;
        batch.gather_s += t2 - t1;
        counts.fm_extends += plan_.fm_extends;
        counts.dp_cells += plan_.dp_cells;
        counts.qgram_jumps += plan_.qgram_jumps;
        counts.located_hits += candidates_.located_hits;
    }

    const index::FmIndex& fm_;
    const genomics::Reference& reference_;
    const filter::Seeder& seeder_;
    core::KernelConfig kernel_;
    std::uint32_t delta_;
    filter::CandidateConfig candidate_config_;
    filter::SeedPlan plan_;
    filter::SeedScratch seed_scratch_;
    filter::CandidateSet candidates_;
    std::vector<std::uint32_t> hits_;
    std::vector<std::uint8_t> rc_;
    std::vector<core::ReadMapping> out_;
    core::KernelScratch scratch_;
};

void kernel_batch(Tracer& tracer, KernelReplay& kernel,
                  const std::vector<const genomics::ReadBatch*>& batches,
                  Counts& counts) {
    const Tracer::Scope span(tracer, "core.kernel_replay");
    KernelReplay::Batch batch;
    for (const auto* b : batches) {
        for (const auto& read : b->reads) kernel.replay(read, batch, counts);
    }
    tracer.add_accumulated(span.id(), "filter.select", batch.select_s,
                           2 * batch.reads);
    tracer.add_accumulated(span.id(), "filter.gather", batch.gather_s,
                           2 * batch.reads);
    tracer.add_accumulated(span.id(), "core.workitem", batch.workitem_s,
                           batch.reads);
    tracer.add_accumulated(span.id(), "core.cigar", batch.cigar_s,
                           batch.cigar_calls);
    counts.cigar_calls += batch.cigar_calls;
}

/// Mates whose placement differs between the two results.
std::size_t differing_mates(const core::PairedResult& a,
                            const core::PairedResult& b) {
    std::size_t differ = 0;
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        const auto& x = a.pairs[i];
        const auto& y = b.pairs[i];
        const bool same_pair = x.classification == y.classification &&
                               x.insert_size == y.insert_size;
        differ += (!same_pair || x.mate1 != y.mate1) +
                  (!same_pair || x.mate2 != y.mate2);
    }
    return differ;
}

/// Reads whose mapping lists differ between the two results.
std::size_t differing_reads(const core::MapResult& a, const core::MapResult& b) {
    std::size_t differ = 0;
    for (std::size_t i = 0; i < a.per_read.size(); ++i) {
        differ += a.per_read[i] != b.per_read[i];
    }
    return differ;
}

void count_batch(const genomics::ReadBatch& batch, Counts& counts) {
    counts.reads += batch.size();
    for (const auto& read : batch.reads) counts.bases += read.length();
}

/// Everything one replay needs, opened before the first pass.
struct Replay {
    const Workload& w;
    const Inputs& inputs;
    const RunOptions& options;
    std::vector<Payload> payloads;
    std::string sam_path;
    std::vector<std::string> problems;
};

/// One pass: index open, read/map/render/write per bucket (plus the
/// same bucket on the other index and the kernel replay), inflate and
/// parse of the input twins, then the daemon sample.
void pass(Replay& ctx, Tracer& tracer, Counts& counts) {
    const Workload& w = ctx.w;
    const Tracer::Scope root(tracer, "trace.replay");
    ++counts.passes;

    std::unique_ptr<pipeline::MappingSession> session, alt;
    {
        const Tracer::Scope span(tracer, "index.open");
        session = pipeline::MappingSession::from_rix(index_path(w, ctx.inputs),
                                                     session_config(w));
    }
    {
        // The other index kind, for the shard overhead and the count of
        // reads the two kinds map differently.
        const Tracer::Scope span(tracer, "index.open_alt");
        alt = pipeline::MappingSession::from_rix(
            w.sharded ? ctx.inputs.rix() : ctx.inputs.rixm(),
            session_config(w));
    }
    std::unique_ptr<Mappers> mappers, alt_mappers;
    {
        const Tracer::Scope span(tracer, "core.make_mapper");
        mappers = make_mappers(*session);
        alt_mappers = make_mappers(*alt);
    }
    counts.shards = mappers->shards;
    const auto& mono_session = w.sharded ? *alt : *session;
    auto* mono = w.sharded ? alt_mappers->monolithic : mappers->monolithic;
    KernelReplay kernel(*mono, mono_session, w.delta);
    const pipeline::MapRequest request = map_request(w);

    std::ofstream sam(ctx.sam_path, std::ios::binary | std::ios::trunc);
    pipeline::SamEmitterConfig emit_config;
    emit_config.cigar = w.cigar;
    emit_config.delta = w.delta;
    pipeline::SamEmitter emitter(sam, session->multi(), emit_config);
    pipeline::RecordReorderWriter writer(sam);
    {
        const Tracer::Scope span(tracer, "pipeline.write");
        emitter.write_header();
    }

    const int mate = w.paired() ? 1 : 0;
    std::ifstream in1(ctx.inputs.fastq(w.reads, mate, w.gz), std::ios::binary);
    if (w.paired()) {
        std::ifstream in2(ctx.inputs.fastq(w.reads, 2, w.gz), std::ios::binary);
        pipeline::PairedStreamingReader reader(in1, in2, request.reader);
        core::PairedMapper paired(*mappers->mapper,
                                  session->multi().concatenated(),
                                  request.pair);
        core::PairedMapper alt_paired(*alt_mappers->mapper,
                                      alt->multi().concatenated(),
                                      request.pair);
        for (;;) {
            pipeline::OrderedPairBatch unit;
            bool more = false;
            {
                const Tracer::Scope span(tracer, "pipeline.read");
                more = reader.next_bucket(unit);
            }
            if (!more) break;
            ++counts.batches;
            count_batch(unit.first, counts);
            count_batch(unit.second, counts);
            core::PairedResult result, alt_result;
            {
                const Tracer::Scope span(tracer, "core.map");
                result = paired.map_pairs(unit.first, unit.second, w.delta);
            }
            {
                const Tracer::Scope span(tracer, "core.map_alt");
                alt_result =
                    alt_paired.map_pairs(unit.first, unit.second, w.delta);
            }
            counts.shard_mismatches += differing_mates(result, alt_result);
            counts.modeled_s += result.mapping_seconds;
            counts.pairs += result.pairs.size();
            counts.proper += result.count(core::PairClass::Proper);
            counts.rescued += result.count(core::PairClass::Rescued);
            for (const auto& p : result.pairs) {
                const auto placed =
                    p.classification == core::PairClass::BothUnmapped ? 0u
                    : p.classification == core::PairClass::OneMateUnmapped
                        ? 1u
                        : 2u;
                counts.mapped += placed;
                counts.mappings += placed;
            }
            std::vector<std::string> rendered;
            {
                const Tracer::Scope span(tracer, "pipeline.render");
                rendered = emitter.render_paired(unit.first, unit.second,
                                                 result);
            }
            {
                const Tracer::Scope span(tracer, "pipeline.write");
                for (std::size_t i = 0; i < rendered.size(); ++i) {
                    counts.sam_bytes += static_cast<double>(rendered[i].size());
                    writer.add(unit.ordinals[i], std::move(rendered[i]));
                }
            }
            kernel_batch(tracer, kernel, {&unit.first, &unit.second}, counts);
        }
        counts.pad_bases += reader.stats().pad_bases;
        counts.length_classes += reader.stats().length_classes;
    } else {
        pipeline::StreamingFastxReader reader(in1, request.reader);
        for (;;) {
            pipeline::OrderedBatch unit;
            bool more = false;
            {
                const Tracer::Scope span(tracer, "pipeline.read");
                more = reader.next_bucket(unit);
            }
            if (!more) break;
            ++counts.batches;
            count_batch(unit.batch, counts);
            core::MapResult result, alt_result;
            {
                const Tracer::Scope span(tracer, "core.map");
                result = mappers->mapper->map(unit.batch, w.delta);
            }
            {
                const Tracer::Scope span(tracer, "core.map_alt");
                alt_result = alt_mappers->mapper->map(unit.batch, w.delta);
            }
            counts.shard_mismatches += differing_reads(result, alt_result);
            counts.modeled_s += result.mapping_seconds;
            counts.staged += static_cast<double>(result.bytes_staged());
            counts.drained += static_cast<double>(result.bytes_drained());
            counts.mappings += result.total_mappings();
            counts.mapped += result.reads_mapped();
            std::vector<std::string> rendered(unit.batch.size());
            {
                const Tracer::Scope span(tracer, "pipeline.render");
                for (std::size_t i = 0; i < unit.batch.size(); ++i) {
                    rendered[i] = emitter.render_read(unit.batch, i, result);
                }
            }
            {
                const Tracer::Scope span(tracer, "pipeline.write");
                for (std::size_t i = 0; i < rendered.size(); ++i) {
                    counts.sam_bytes += static_cast<double>(rendered[i].size());
                    writer.add(unit.ordinals[i], std::move(rendered[i]));
                }
            }
            kernel_batch(tracer, kernel, {&unit.batch}, counts);
        }
        counts.pad_bases += reader.stats().pad_bases;
        counts.length_classes += reader.stats().length_classes;
    }
    {
        const Tracer::Scope span(tracer, "pipeline.write");
        writer.finish();
        sam.flush();
    }
    counts.records += emitter.stats().records;
    counts.max_parked = std::max(counts.max_parked, writer.max_parked());

    // Inflate and parse, each measured alone on the input's twins.
    for (int m = w.paired() ? 1 : 0; m <= (w.paired() ? 2 : 0); ++m) {
        {
            const Tracer::Scope span(tracer, "util.inflate");
            std::ifstream raw(ctx.inputs.fastq(w.reads, m, true),
                              std::ios::binary);
            util::GzipInputStream gz(raw);
            char buffer[1 << 16];
            while (gz.stream().read(buffer, sizeof buffer) ||
                   gz.stream().gcount() > 0) {
                counts.inflated_bytes +=
                    static_cast<double>(gz.stream().gcount());
            }
        }
        {
            const Tracer::Scope span(tracer, "genomics.parse");
            std::ifstream plain(ctx.inputs.fastq(w.reads, m), std::ios::binary);
            genomics::FastxRecordStream records(plain);
            genomics::FastqRecord record;
            while (records.next(record) ==
                   genomics::FastxRecordStream::Status::Record) {
                ++counts.parsed;
            }
        }
    }

    // The daemon sample: one client, one request at a time.
    const std::string socket = ctx.options.out_dir + "/" + w.name + ".trace.sock";
    LiveDaemon daemon;
    {
        const Tracer::Scope span(tracer, "serve.start");
        daemon = start_daemon(w, ctx.inputs, ctx.options.repute, socket,
                              w.daemon ? 2 : 1,
                              ctx.options.out_dir + "/" + w.name + ".log");
    }
    for (const auto& payload : ctx.payloads) {
        {
            const Tracer::Scope span(tracer, "serve.encode");
            serve::WireRequest wire = wire_request(w);
            wire.reads = payload.reads;
            wire.reads2 = payload.reads2;
            [[maybe_unused]] const auto frame = serve::encode_request(wire);
        }
        ClientCall call;
        {
            const Tracer::Scope span(tracer, "serve.client");
            call = call_daemon(socket, w, payload);
        }
        counts.ttfb_s.push_back(call.ttfb_s);
        std::string expected;
        {
            const Tracer::Scope span(tracer, "serve.in_process");
            expected = map_in_process(*session, w, payload);
        }
        if (!call.error.empty() || call.sam != expected) {
            ctx.problems.push_back("daemon response differs from in-process SAM" +
                                   (call.error.empty() ? "" : ": " + call.error));
        }
    }
    {
        const Tracer::Scope span(tracer, "serve.stop");
        if (daemon.process->stop() != 0) {
            ctx.problems.push_back("repute serve did not exit cleanly");
        }
    }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

} // namespace

RunResult run_traced(const Workload& w, const Inputs& inputs,
                     const RunOptions& options) {
    RunResult r;
    r.workload = w.name;
    const std::string log = options.out_dir + "/" + w.name + ".log";

    // The CLI's output, which every replay pass must reproduce.
    const auto cli = run_child(map_argv(w, inputs, options.repute, false), log);
    if (cli.status != 0) {
        throw std::runtime_error("repute map exited with " +
                                 std::to_string(cli.status) + " (see " + log + ")");
    }

    Replay ctx{w, inputs, options, make_payloads(w, inputs, kPayloads),
               options.out_dir + "/" + w.name + ".replay.sam", {}};
    Tracer tracer(w.name);
    Counts counts;
    const double start = now_s();
    do {
        pass(ctx, tracer, counts);
        std::ifstream in(ctx.sam_path, std::ios::binary);
        std::ostringstream replay;
        replay << in.rdbuf();
        if (replay.str() != cli.out) {
            ctx.problems.push_back("replay SAM differs from CLI SAM");
        }
    } while (now_s() - start < options.seconds);

    for (const auto& problem : ctx.problems) r.fail(problem, 0);
    r.attempted = counts.reads;

    {
        std::ofstream trace(options.out_dir + "/" + w.name + ".trace.json");
        trace << tracer.chrome_json();
    }

    // Per-pass values: every pass does identical work.
    const double passes = static_cast<double>(counts.passes);
    const std::vector<LayerTotal> layers = tracer.layers();
    std::map<std::string, LayerTotal> layer;
    for (const auto& l : layers) layer[l.name] = l;
    const auto self = [&](const std::string& name) {
        return layer.count(name) ? layer[name].self_s / passes : 0.0;
    };
    const double wall = tracer.wall_s() / passes;
    const auto& st = counts.stages;
    const double reads = static_cast<double>(counts.reads);

    std::printf("%s trace: %zu pass(es), %.3f s traced wall per pass\n",
                w.name.c_str(), counts.passes, wall);
    std::printf("  %-22s %10s %7s %8s %10s\n", "layer", "self_s", "share",
                "spans", "calls");
    for (const auto& l : layers) {
        std::printf("  %-22s %10.4f %6.1f%% %8zu %10zu\n", l.name.c_str(),
                    l.self_s / passes, 100.0 * ratio(l.self_s / passes, wall),
                    l.spans / counts.passes, l.calls / counts.passes);
    }

    const double select_s = self("filter.select");
    const double gather_s = self("filter.gather");
    const double workitem_s = self("core.workitem");
    const double verify_s = workitem_s - select_s - gather_s;
    const double inflate_s = self("util.inflate");
    const double parse_s = self("genomics.parse");
    const double read_s = self("pipeline.read");
    const double map_s = self("core.map");
    const double rix_map_s = w.sharded ? self("core.map_alt") : map_s;
    const double rixm_map_s = w.sharded ? map_s : self("core.map_alt");
    const double client_s = self("serve.client");
    const double in_process_s = self("serve.in_process");
    const double scans = static_cast<double>(st.simd_lanes + st.simd_tail);
    const double candidates = static_cast<double>(st.candidates);
    const auto session = pipeline::MappingSession::from_rix(
        index_path(w, inputs), session_config(w));

    r.add("index.open_s", "s", self("index.open"), counts.passes);
    r.add("index.mapped_mb", "MB",
          static_cast<double>(session->mapped_bytes()) / 1e6);
    r.add("index.resident_mb", "MB",
          static_cast<double>(session->resident_bytes()) / 1e6);
    r.add("util.inflate_s", "s", inflate_s, counts.passes);
    r.add("util.inflate_mb_per_s", "MB/s",
          ratio(counts.inflated_bytes / passes / 1e6, inflate_s));
    r.add("genomics.parse_s", "s", parse_s, counts.passes);
    r.add("genomics.records", "count", counts.parsed / passes);
    r.add("pipeline.read_s", "s", read_s, counts.passes);
    r.add("pipeline.bucket_s", "s", read_s - parse_s - (w.gz ? inflate_s : 0.0),
          counts.passes);
    r.add("pipeline.batches", "count", counts.batches / passes);
    r.add("pipeline.length_classes", "count", counts.length_classes / passes);
    r.add("pipeline.pad_frac", "frac",
          ratio(static_cast<double>(counts.pad_bases),
                static_cast<double>(counts.bases + counts.pad_bases)));
    r.add("core.map_s", "s", map_s, counts.passes);
    r.add("core.map_calls", "count", counts.batches / passes);
    r.add("core.mappings_per_read", "count",
          ratio(static_cast<double>(counts.mappings), reads));
    r.add("core.mapped_read_frac", "frac",
          ratio(static_cast<double>(counts.mapped), reads));
    r.add("core.measured_over_modeled", "ratio",
          ratio(map_s, counts.modeled_s / passes));
    r.add("core.shard_count", "count", static_cast<double>(counts.shards));
    r.add("core.shard_overhead_frac", "frac", ratio(rixm_map_s, rix_map_s) - 1.0,
          counts.passes);
    r.add("core.shard_mismatch_frac", "frac",
          ratio(static_cast<double>(counts.shard_mismatches), reads));
    r.add("core.pair_proper_frac", "frac",
          ratio(static_cast<double>(counts.proper),
                static_cast<double>(counts.pairs)));
    r.add("core.pair_rescued_frac", "frac",
          ratio(static_cast<double>(counts.rescued),
                static_cast<double>(counts.pairs)));
    r.add("ocl.modeled_s", "model_s", counts.modeled_s / passes);
    r.add("ocl.bytes_staged", "bytes", counts.staged / passes);
    r.add("ocl.bytes_drained", "bytes", counts.drained / passes);
    r.add("pipeline.render_s", "s", self("pipeline.render"), counts.passes);
    r.add("pipeline.records", "count", counts.records / passes);
    r.add("pipeline.sam_mb", "MB", counts.sam_bytes / passes / 1e6);
    r.add("pipeline.write_s", "s", self("pipeline.write"), counts.passes);
    r.add("pipeline.reorder_max_parked", "count",
          static_cast<double>(counts.max_parked));
    r.add("core.workitem_s", "s", workitem_s, counts.passes);
    r.add("filter.select_s", "s", select_s, counts.passes);
    r.add("filter.fm_extends", "count", counts.fm_extends / passes);
    r.add("filter.qgram_jumps", "count", counts.qgram_jumps / passes);
    r.add("filter.dp_cells", "count", counts.dp_cells / passes);
    r.add("filter.ns_per_op", "ns",
          ratio(select_s * 1e9, st.filtration_ops / passes));
    r.add("filter.gather_s", "s", gather_s, counts.passes);
    r.add("filter.located_hits", "count", counts.located_hits / passes);
    r.add("filter.candidates", "count", candidates / passes);
    r.add("filter.dedup_ratio", "ratio",
          ratio(candidates, static_cast<double>(st.raw_hits)));
    r.add("align.verify_s", "s", verify_s, counts.passes);
    r.add("align.ns_per_op", "ns", ratio(verify_s * 1e9, st.verify_ops / passes));
    r.add("align.prefilter_reject_frac", "frac",
          ratio(static_cast<double>(st.prefilter_rejects), candidates));
    r.add("align.prefilter_exact_frac", "frac",
          ratio(static_cast<double>(st.prefilter_exacts), candidates));
    r.add("align.early_exit_frac", "frac",
          ratio(static_cast<double>(st.myers_early_exits), scans));
    r.add("align.simd_lane_occupancy", "frac",
          ratio(static_cast<double>(st.simd_lanes), scans));
    r.add("align.simd_tail_frac", "frac",
          ratio(static_cast<double>(st.simd_tail), scans));
    r.add("align.accept_frac", "frac",
          ratio(static_cast<double>(st.accepted), candidates));
    r.add("core.cigar_s", "s", self("core.cigar"), counts.passes);
    r.add("core.cigar_calls", "count", counts.cigar_calls / passes);
    r.add("core.cigar_us_per_call", "us",
          ratio(self("core.cigar") * 1e6, counts.cigar_calls / passes));
    r.add("serve.encode_s", "s", self("serve.encode"), counts.passes);
    r.add("serve.in_process_s", "s", in_process_s, counts.passes);
    r.add("serve.client_s", "s", client_s, counts.passes);
    r.add("serve.overhead_frac", "frac", ratio(client_s, in_process_s) - 1.0,
          counts.passes);
    r.add("serve.ttfb_s", "s", median(counts.ttfb_s), counts.ttfb_s.size());
    r.add("trace.wall_s", "s", wall, counts.passes);
    r.add("trace.residual_frac", "frac", ratio(self("trace.replay"), wall),
          counts.passes);
    return r;
}

} // namespace e2e
