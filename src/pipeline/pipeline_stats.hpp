#pragma once
// Pipeline accounting and the thin obs:: bridge.
//
// PipelineStats is always collected (it is how the CLI and the
// pipeline_throughput bench report stage balance); the detail::
// helpers additionally mirror the numbers into the globally installed
// obs::MetricsRegistry when one exists, costing one branch when
// tracing is off — the same contract as every other instrumented
// subsystem.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace repute::pipeline {

struct PipelineStats {
    std::size_t units = 0;       ///< batches emitted by the writer
    std::size_t map_workers = 0;
    std::size_t queue_depth = 0;
    /// Peak batches resident anywhere in the pipeline (queues, map
    /// stage, sink) — the memory-bound witness.
    std::size_t max_in_flight = 0;
    /// Peak rendered records parked in the output reorder writer.
    std::size_t max_reorder_parked = 0;
    /// Host<->device traffic the mapped units staged/drained.
    std::uint64_t bytes_staged = 0;
    std::uint64_t bytes_drained = 0;
    /// Host seconds each stage spent doing work...
    double reader_seconds = 0.0;
    double map_seconds = 0.0; ///< summed across workers
    double writer_seconds = 0.0;
    /// ...and blocked on its neighbours (full/empty queues).
    double reader_stall_seconds = 0.0;
    double map_stall_seconds = 0.0;
    double writer_stall_seconds = 0.0;
    double wall_seconds = 0.0;

    /// Multi-line human-readable stage breakdown.
    std::string format() const;
};

/// Tracks how many units are resident in the pipeline and the peak.
class InFlightGauge {
public:
    void enter() noexcept {
        const auto now =
            count_.fetch_add(1, std::memory_order_relaxed) + 1;
        auto peak = peak_.load(std::memory_order_relaxed);
        while (now > peak &&
               !peak_.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed)) {
        }
    }
    void leave() noexcept {
        count_.fetch_sub(1, std::memory_order_relaxed);
    }
    double current() const noexcept {
        return static_cast<double>(count_.load(std::memory_order_relaxed));
    }
    std::size_t peak() const noexcept {
        return peak_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::size_t> count_{0};
    std::atomic<std::size_t> peak_{0};
};

namespace detail {

/// No-ops (one relaxed load + branch) when no registry is installed.
void gauge_set(const char* name, double value);
void counter_add(const char* name, std::uint64_t delta);
void hist_observe(const char* name, double value);

} // namespace detail

} // namespace repute::pipeline
