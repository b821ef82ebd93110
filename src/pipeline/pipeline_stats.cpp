#include "pipeline/pipeline_stats.hpp"

#include <cstdio>

#include "obs/trace.hpp"

namespace repute::pipeline {

std::string PipelineStats::format() const {
    char line[160];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "pipeline: %zu batches, %zu map worker(s), queue depth "
                  "%zu, peak in flight %zu (reorder %zu records), wall "
                  "%.3fs\n",
                  units, map_workers, queue_depth, max_in_flight,
                  max_reorder_parked, wall_seconds);
    out += line;
    const auto stage = [&](const char* name, double busy, double stall) {
        std::snprintf(line, sizeof(line),
                      "  %-7s busy %8.3fs   stalled %8.3fs\n", name, busy,
                      stall);
        out += line;
    };
    stage("reader", reader_seconds, reader_stall_seconds);
    stage("map", map_seconds, map_stall_seconds);
    stage("writer", writer_seconds, writer_stall_seconds);
    return out;
}

namespace detail {

void gauge_set(const char* name, double value) {
    if (auto* registry = obs::metrics()) {
        registry->gauge(name).set(value);
    }
}

void counter_add(const char* name, std::uint64_t delta) {
    if (auto* registry = obs::metrics()) {
        registry->counter(name).add(delta);
    }
}

void hist_observe(const char* name, double value) {
    if (auto* registry = obs::metrics()) {
        registry->histogram(name).observe(value);
    }
}

} // namespace detail

} // namespace repute::pipeline
