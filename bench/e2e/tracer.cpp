#include "tracer.hpp"

#include <cstdio>
#include <map>

#include "proc.hpp"

namespace e2e {

int Tracer::begin(const std::string& name) {
    Span span;
    span.name = name;
    span.start = now_s();
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    child_cursor_.push_back(span.start);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void Tracer::end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add_accumulated(int parent, const std::string& name,
                             double seconds, std::size_t calls) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.calls = calls;
    span.accumulated = true;
    double& cursor = child_cursor_[static_cast<std::size_t>(parent)];
    span.start = cursor;
    span.end = cursor + seconds;
    cursor = span.end;
    spans_.push_back(span);
    child_cursor_.push_back(span.start);
}

std::vector<LayerTotal> Tracer::layers() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const auto& span : spans_) {
        if (span.parent >= 0) {
            child_time[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;
        }
    }
    std::vector<LayerTotal> totals;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& span = spans_[i];
        auto [it, fresh] = index.try_emplace(span.name, totals.size());
        if (fresh) totals.push_back({span.name, 0.0, 0, 0});
        auto& total = totals[it->second];
        total.self_s += span.end - span.start - child_time[i];
        ++total.spans;
        total.calls += span.calls;
    }
    return totals;
}

double Tracer::wall_s() const {
    double wall = 0.0;
    for (const auto& span : spans_) {
        if (span.parent < 0) wall += span.end - span.start;
    }
    return wall;
}

std::string Tracer::chrome_json() const {
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::string out = "{\"traceEvents\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& span = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %d, \"workload\": \"%s\", "
                      "\"calls\": %zu, \"accumulated\": %s}}",
                      i == 0 ? "" : ",\n", span.name.c_str(),
                      (span.start - origin) * 1e6,
                      (span.end - span.start) * 1e6, i, span.parent,
                      workload_.c_str(), span.calls,
                      span.accumulated ? "true" : "false");
        out += buf;
    }
    return out + "\n], \"displayTimeUnit\": \"ms\"}\n";
}

} // namespace e2e
