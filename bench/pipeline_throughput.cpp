// Streaming pipeline vs monolithic wall clock.
//
//   pipeline_throughput [--quick] [--genome N] [--reads N] [--seed S]
//                       [--n 100|150] [--delta D] [--batch-size N]
//                       [--queue-depth N] [--threads N] [--repeats N]
//                       [--trace out.json] [--xfer]
//
// --xfer switches to the transfer-overlap fixture: a transfer-heavy
// single-device workload (link bandwidth calibrated so staging a chunk
// costs as much as computing it) mapped twice — double-buffered and
// with --no-double-buffer semantics — byte-comparing the SAM and
// printing the modeled-time ratio as `xfer_speedup:` (CI gates on it).
//
// Both paths do the same end-to-end work on the table 1 workload —
// parse FASTQ, map, emit SAM — and their outputs are byte-compared
// (the run fails if they ever diverge). The monolithic path reads the
// whole file as one batch (a StreamingFastxReader whose batch size is
// the read count), then makes one map() call and one emit pass. The
// streaming path is the repute CLI's shape: length-class
// buckets, --threads mapper workers, input-order emission, all
// overlapped through bounded queues. The difference is real host wall clock, so
// the win scales with available cores (parse/map/emit overlap); on a
// single-core host expect parity, not regression.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/paired.hpp"
#include "genomics/multi_reference.hpp"
#include "pipeline/mapping_pipeline.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"
#include "util/timer.hpp"

using namespace repute;

namespace {

std::string to_fastq_text(const genomics::SimulatedReads& sim) {
    std::ostringstream out;
    genomics::write_fastq(out, genomics::to_fastq_records(sim));
    return out.str();
}

/// Transfer-overlap fixture (--xfer): same mapping twice on a modeled
/// slow link, with and without double-buffered staging. The fixture
/// keeps the resident image small (tiny genome) and the chunk count
/// high (fixed 256-read chunks) so steady-state staging dominates, and
/// calibrates the link so staging a chunk costs exactly one chunk's
/// compute — the regime double buffering is built for.
int run_xfer_bench(const util::Args& args) {
    bench::WorkloadConfig wconfig;
    wconfig.genome_length = 200'000;
    wconfig.n_reads = 8'000;
    wconfig.seed = static_cast<std::uint64_t>(args.get_int("seed", 21));
    if (args.get_bool("quick", false)) {
        wconfig.genome_length /= 4;
        wconfig.n_reads /= 4;
    }
    const auto workload = bench::make_workload(wconfig);
    const std::size_t n = 100;
    const std::uint32_t delta = 5;
    const auto& batch = workload.reads100.batch;

    core::HeterogeneousMapperConfig config;
    config.kernel.s_min = 14;
    // Small output cap keeps the d2h drain below the h2d stage, so the
    // calibrated link's bottleneck is the staging we want to overlap.
    config.kernel.max_locations_per_read = 4;
    config.schedule = core::ScheduleMode::Dynamic;
    config.scheduler.chunk_items = 256;

    const genomics::MultiReference multi(
        {{workload.reference().name(),
          workload.reference().sequence().to_string()}});
    pipeline::SamEmitterConfig emit_config;
    emit_config.delta = delta;

    const auto run_once = [&](const ocl::TransferSpec& spec,
                              bool double_buffer, std::string* sam_out) {
        ocl::Device device(ocl::profile_i7_2600());
        device.set_transfer_spec(spec);
        auto cfg = config;
        cfg.double_buffer = double_buffer;
        auto mapper =
            core::make_repute(workload.reference(), workload.fm(),
                              {{&device, 1.0}}, cfg);
        auto result = mapper->map(batch, delta);
        if (sam_out != nullptr) {
            std::ostringstream sam;
            pipeline::SamEmitter emitter(sam, multi, emit_config);
            emitter.write_header();
            for (std::size_t i = 0; i < batch.size(); ++i) {
                sam << emitter.render_read(batch, i, result);
            }
            *sam_out = sam.str();
        }
        return result;
    };

    // Calibration: an unmodeled run gives the pure per-chunk compute
    // time; pick the link speed that makes staging a chunk cost the
    // same (modeled time is deterministic, so this is reproducible).
    std::string sam_reference;
    const auto baseline =
        run_once(ocl::TransferSpec{}, true, &sam_reference);
    const std::size_t chunks = baseline.schedule->chunks;
    const double per_chunk =
        baseline.mapping_seconds / static_cast<double>(chunks);
    ocl::TransferSpec link;
    link.bytes_per_second =
        static_cast<double>(config.scheduler.chunk_items * n) / per_chunk;
    std::printf("xfer fixture: %zu reads, %zu chunks, %.4fs compute, "
                "link %.2f MB/s\n",
                batch.size(), chunks, baseline.mapping_seconds,
                link.bytes_per_second / 1e6);

    std::string sam_serial, sam_double;
    const auto serial = run_once(link, false, &sam_serial);
    const auto doubled = run_once(link, true, &sam_double);

    if (sam_serial != sam_reference || sam_double != sam_reference) {
        std::fprintf(stderr,
                     "FAIL: staged SAM diverges from the unmodeled "
                     "reference (serial %zu, double %zu, ref %zu "
                     "bytes)\n",
                     sam_serial.size(), sam_double.size(),
                     sam_reference.size());
        return 1;
    }
    std::printf("outputs byte-identical across staging modes (%zu "
                "bytes)  [OK]\n",
                sam_reference.size());
    std::printf("staged %.1f MB h2d, drained %.1f MB d2h per run\n",
                static_cast<double>(doubled.bytes_staged()) / 1e6,
                static_cast<double>(doubled.bytes_drained()) / 1e6);
    std::printf("serialized      T=%.4fs  overlap=%.3f\n",
                serial.mapping_seconds, serial.transfer_overlap_ratio());
    std::printf("double-buffered T=%.4fs  overlap=%.3f\n",
                doubled.mapping_seconds,
                doubled.transfer_overlap_ratio());
    std::printf("xfer_speedup: %.3f\n",
                serial.mapping_seconds / doubled.mapping_seconds);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const bench::ScopedTrace trace(args);
    if (args.get_bool("xfer", false)) return run_xfer_bench(args);
    const auto workload_config = bench::parse_workload_config(args);
    const auto n = static_cast<std::size_t>(args.get_int("n", 100));
    const auto delta =
        static_cast<std::uint32_t>(args.get_int("delta", 5));
    const auto batch_size =
        static_cast<std::size_t>(args.get_int("batch-size", 2048));
    const auto threads =
        static_cast<std::size_t>(args.get_int("threads", 2));
    const auto repeats =
        static_cast<std::size_t>(args.get_int("repeats", 3));
    pipeline::PipelineConfig pipe_config;
    pipe_config.queue_depth =
        static_cast<std::size_t>(args.get_int("queue-depth", 4));

    const auto workload = bench::make_workload(workload_config);
    const genomics::MultiReference multi(
        {{workload.reference().name(),
          workload.reference().sequence().to_string()}});
    const std::string fastq = to_fastq_text(workload.reads(n));
    std::printf("workload: n=%zu delta=%u, %zu reads, FASTQ %.1f MB, "
                "batch %zu, %zu worker(s), queue depth %zu\n",
                n, delta, workload.reads(n).batch.size(),
                static_cast<double>(fastq.size()) / 1e6, batch_size,
                threads, pipe_config.queue_depth);

    core::HeterogeneousMapperConfig mapper_config;
    mapper_config.kernel.s_min = 14;
    const auto make_mapper = [&](ocl::Device& device) {
        return core::make_repute(workload.reference(), workload.fm(),
                                 {{&device, 1.0}}, mapper_config);
    };
    pipeline::SamEmitterConfig emit_config;
    emit_config.delta = delta;

    // Monolithic: parse everything, then map, then emit.
    double mono_best = 1e300;
    std::string mono_sam;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        ocl::Device device(ocl::profile_i7_2600());
        auto mapper = make_mapper(device);
        std::ostringstream sam;
        util::Stopwatch timer;
        std::istringstream in(fastq);
        pipeline::StreamingReaderConfig one_batch;
        one_batch.batch_size = workload.reads(n).batch.size();
        one_batch.length_grid = 1; // exact read length, no padding
        pipeline::StreamingFastxReader reader(in, one_batch);
        pipeline::OrderedBatch unit;
        reader.next_bucket(unit);
        const auto result = mapper->map(unit.batch, delta);
        pipeline::SamEmitter emitter(sam, multi, emit_config);
        emitter.write_header();
        for (std::size_t i = 0; i < unit.batch.size(); ++i) {
            sam << emitter.render_read(unit.batch, i, result);
        }
        mono_best = std::min(mono_best, timer.seconds());
        mono_sam = sam.str();
    }

    // Streaming: the same work overlapped through the pipeline.
    double stream_best = 1e300;
    std::string stream_sam;
    pipeline::PipelineStats stream_stats;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        std::vector<std::unique_ptr<ocl::Device>> devices;
        std::vector<std::unique_ptr<core::HeterogeneousMapper>> owned;
        std::vector<core::Mapper*> mappers;
        for (std::size_t t = 0; t < threads; ++t) {
            devices.push_back(
                std::make_unique<ocl::Device>(ocl::profile_i7_2600()));
            owned.push_back(make_mapper(*devices.back()));
            mappers.push_back(owned.back().get());
        }
        std::ostringstream sam;
        util::Stopwatch timer;
        std::istringstream in(fastq);
        pipeline::StreamingReaderConfig reader_config;
        reader_config.batch_size = batch_size;
        pipeline::StreamingFastxReader reader(in, reader_config);
        pipeline::SamEmitter emitter(sam, multi, emit_config);
        emitter.write_header();
        const auto stats = pipeline::run_pipeline(reader, mappers, delta,
                                                  emitter, sam, pipe_config);
        stream_best = std::min(stream_best, timer.seconds());
        stream_sam = sam.str();
        stream_stats = stats;
    }

    if (mono_sam != stream_sam) {
        std::fprintf(stderr,
                     "FAIL: streaming SAM diverges from monolithic "
                     "(%zu vs %zu bytes)\n",
                     stream_sam.size(), mono_sam.size());
        return 1;
    }
    std::printf("outputs byte-identical (%zu bytes)  [OK]\n",
                mono_sam.size());
    std::printf("%s", stream_stats.format().c_str());
    const double speedup =
        mono_best > 0.0 ? (mono_best / stream_best - 1.0) * 100.0 : 0.0;
    std::printf("monolithic  best of %zu: %8.3f s\n", repeats, mono_best);
    std::printf("streaming   best of %zu: %8.3f s  (%+.1f%% throughput)\n",
                repeats, stream_best, speedup);
    return 0;
}
