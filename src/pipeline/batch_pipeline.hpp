#pragma once
// Bounded streaming batch pipeline.
//
// Three stages connected by bounded queues:
//
//   reader thread --in queue--> map workers --out queue--> writer thread
//
// The reader pulls units (read batches) from a source callback, the map
// workers transform them (heterogeneous mapping), and the writer hands
// each result to a sink callback *in completion order*: on a skewed
// device fleet a fast worker's later batch reaches the sink before a
// slow worker's earlier one. Units carry their own record ordinals, so
// the sink restores input order with one RecordReorderWriter (see
// run_pipeline) — the engine keeps no second ordering buffer.
// Bounded queues give backpressure in both directions: the reader can
// run at most queue_depth batches ahead (batch i+1 parses while batch i
// maps — the double buffer generalized), and a slow writer pauses
// mapping rather than letting results pile up. Peak pipeline memory is
// therefore O(queue_depth x batch size), not file size.
//
// The template is unit-agnostic so single-end and paired buckets share
// one engine; see mapping_pipeline.hpp for the mapping entry point.
//
// Error handling: the first exception thrown by any stage closes both
// queues, drains the pipeline, and is rethrown from run() on the
// calling thread.

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "pipeline/bounded_queue.hpp"
#include "pipeline/pipeline_stats.hpp"
#include "util/timer.hpp"

namespace repute::pipeline {

struct PipelineConfig {
    /// Capacity, in batches, of each inter-stage queue (clamped >= 1).
    std::size_t queue_depth = 4;
    /// Concurrent map-stage workers; worker w receives index w in the
    /// map callback so each can own its mapper instance.
    std::size_t map_workers = 1;
};

template <typename Unit, typename Result>
class BatchPipeline {
public:
    /// Fills `unit` with the next input; false when exhausted.
    using Source = std::function<bool(Unit& unit)>;
    /// Transforms one unit on map worker `worker`.
    using MapFn = std::function<Result(const Unit& unit,
                                       std::size_t worker)>;
    /// Receives each (unit, result) in completion order, serialized on
    /// the writer thread.
    using Sink = std::function<void(const Unit& unit, const Result& result)>;

    explicit BatchPipeline(PipelineConfig config) : config_(config) {
        if (config_.queue_depth == 0) config_.queue_depth = 1;
        if (config_.map_workers == 0) config_.map_workers = 1;
    }

    /// Runs the pipeline to completion (or first error) and returns the
    /// per-stage accounting.
    PipelineStats run(const Source& source, const MapFn& map,
                      const Sink& sink) {
        struct Mapped {
            Unit unit;
            Result result;
        };
        BoundedQueue<Unit> in(config_.queue_depth);
        BoundedQueue<Mapped> out(config_.queue_depth);

        PipelineStats stats;
        stats.map_workers = config_.map_workers;
        stats.queue_depth = config_.queue_depth;
        std::mutex stats_mutex;
        std::exception_ptr first_error;
        std::mutex error_mutex;
        InFlightGauge in_flight;

        auto capture = [&](std::exception_ptr error) {
            const std::lock_guard lock(error_mutex);
            if (!first_error) first_error = std::move(error);
        };

        const util::Stopwatch wall;

        std::thread reader([&] {
            try {
                util::Stopwatch busy;
                for (;;) {
                    busy.reset();
                    Unit unit;
                    const bool more = source(unit);
                    {
                        const std::lock_guard lock(stats_mutex);
                        stats.reader_seconds += busy.seconds();
                    }
                    if (!more) break;
                    in_flight.enter();
                    detail::gauge_set("pipeline.batches_in_flight",
                                      in_flight.current());
                    if (!in.push(std::move(unit))) {
                        in_flight.leave();
                        break; // closed by an error elsewhere
                    }
                    detail::gauge_set("pipeline.input_queue_depth",
                                      static_cast<double>(in.depth()));
                }
            } catch (...) {
                capture(std::current_exception());
            }
            in.close();
        });

        std::vector<std::thread> workers;
        workers.reserve(config_.map_workers);
        std::mutex workers_open_mutex;
        std::size_t workers_open = config_.map_workers;
        for (std::size_t w = 0; w < config_.map_workers; ++w) {
            workers.emplace_back([&, w] {
                try {
                    util::Stopwatch busy;
                    while (auto unit = in.pop()) {
                        busy.reset();
                        Mapped mapped{std::move(*unit), Result{}};
                        mapped.result = map(mapped.unit, w);
                        const double seconds = busy.seconds();
                        {
                            const std::lock_guard lock(stats_mutex);
                            stats.map_seconds += seconds;
                        }
                        detail::hist_observe("pipeline.batch_map_seconds",
                                             seconds);
                        if (!out.push(std::move(mapped))) {
                            break;
                        }
                        detail::gauge_set(
                            "pipeline.output_queue_depth",
                            static_cast<double>(out.depth()));
                    }
                } catch (...) {
                    capture(std::current_exception());
                    in.close(); // stop the reader feeding a dead stage
                }
                const std::lock_guard lock(workers_open_mutex);
                if (--workers_open == 0) out.close();
            });
        }

        std::thread writer([&] {
            try {
                util::Stopwatch busy;
                while (auto mapped = out.pop()) {
                    busy.reset();
                    sink(mapped->unit, mapped->result);
                    {
                        const std::lock_guard lock(stats_mutex);
                        stats.writer_seconds += busy.seconds();
                        ++stats.units;
                    }
                    in_flight.leave();
                    detail::gauge_set("pipeline.batches_in_flight",
                                      in_flight.current());
                }
            } catch (...) {
                capture(std::current_exception());
                in.close();
                out.close();
            }
        });

        reader.join();
        for (auto& worker : workers) worker.join();
        writer.join();

        stats.reader_stall_seconds = in.push_stall_seconds();
        stats.map_stall_seconds =
            in.pop_stall_seconds() + out.push_stall_seconds();
        stats.writer_stall_seconds = out.pop_stall_seconds();
        stats.max_in_flight = in_flight.peak();
        stats.wall_seconds = wall.seconds();
        detail::counter_add("pipeline.batches", stats.units);
        detail::hist_observe("pipeline.reader_stall_seconds",
                             stats.reader_stall_seconds);
        detail::hist_observe("pipeline.map_stall_seconds",
                             stats.map_stall_seconds);
        detail::hist_observe("pipeline.writer_stall_seconds",
                             stats.writer_stall_seconds);

        if (first_error) std::rethrow_exception(first_error);
        return stats;
    }

private:
    PipelineConfig config_;
};

} // namespace repute::pipeline
