#include "core/report.hpp"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>

namespace repute::core {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
    char buffer[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof buffer, fmt, args);
    va_end(args);
    out += buffer;
}

} // namespace

std::string format_map_report(const genomics::ReadBatch& batch,
                              const MapResult& result) {
    std::string out;
    const std::size_t reads = batch.size();
    const std::size_t mapped = result.reads_mapped();
    appendf(out, "reads: %zu (length %zu), mapped %zu (%.1f%%), %llu "
                 "mappings, %.4f s modeled\n",
            reads, batch.read_length, mapped,
            reads ? 100.0 * static_cast<double>(mapped) /
                        static_cast<double>(reads)
                  : 0.0,
            static_cast<unsigned long long>(result.total_mappings()),
            result.mapping_seconds);

    // Mappings-per-read histogram: 0, 1, 2-9, 10-99, 100+.
    std::array<std::size_t, 5> histogram{};
    for (const auto& m : result.per_read) {
        const std::size_t count = m.size();
        const std::size_t bucket = count == 0   ? 0
                                   : count == 1 ? 1
                                   : count < 10 ? 2
                                   : count < 100 ? 3
                                                 : 4;
        ++histogram[bucket];
    }
    appendf(out, "mappings/read: 0:%zu  1:%zu  2-9:%zu  10-99:%zu  "
                 "100+:%zu\n",
            histogram[0], histogram[1], histogram[2], histogram[3],
            histogram[4]);

    for (const auto& run : result.device_runs) {
        appendf(out, "device %-12s %7zu reads  %.4f s  util %.2f",
                run.device_name.c_str(), run.stats.items, run.stats.seconds,
                run.stats.utilization);
        const auto total = run.stats.total_ops;
        if (total > 0 && run.stage.total_ops() > 0) {
            appendf(out, "  [filter %2.0f%% locate %2.0f%% verify %2.0f%%]",
                    100.0 * static_cast<double>(run.stage.filtration_ops) /
                        static_cast<double>(total),
                    100.0 * static_cast<double>(run.stage.locate_ops) /
                        static_cast<double>(total),
                    100.0 * static_cast<double>(run.stage.verify_ops) /
                        static_cast<double>(total));
        }
        out += '\n';
    }
    return out;
}

} // namespace repute::core
