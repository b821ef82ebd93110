#pragma once
// In-memory spans of the traced replay.
//
// A span is (name, start, end, parent, workload). Spans are recorded
// at batch granularity from the benchmark's own code, around the calls
// into each layer; per-read calls are summed into "accumulated" child
// spans of their batch span, laid end to end from the batch start. A
// layer's self time is its spans' durations minus their children's.
// Nothing is written until the replay ends.

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::size_t calls = 1;    ///< calls the span stands for
    bool accumulated = false; ///< a per-read sum, not one interval
};

struct LayerTotal {
    std::string name;
    double self_s = 0.0;
    std::size_t spans = 0;
    std::size_t calls = 0;
};

class Tracer {
public:
    explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

    /// Opens a span under the innermost open one; returns its id.
    int begin(const std::string& name);
    void end(int id);
    /// A child of `parent` summing `calls` calls that took `seconds`.
    void add_accumulated(int parent, const std::string& name, double seconds,
                         std::size_t calls);

    /// Self time and counts per span name, in first-seen order.
    std::vector<LayerTotal> layers() const;
    /// Sum of the durations of the root spans.
    double wall_s() const;
    /// Chrome trace-event JSON (chrome://tracing, Perfetto).
    std::string chrome_json() const;

    /// RAII span.
    class Scope {
    public:
        Scope(Tracer& tracer, const std::string& name)
            : tracer_(tracer), id_(tracer.begin(name)) {}
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        int id() const { return id_; }

    private:
        Tracer& tracer_;
        int id_;
    };

private:
    std::string workload_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    /// Offset at which the next accumulated child of a span starts.
    std::vector<double> child_cursor_;
};

} // namespace e2e
