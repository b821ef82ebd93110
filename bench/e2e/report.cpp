#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "align/myers_simd.hpp"

namespace e2e {

namespace {

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// Full precision, so no two distinct measurements print alike.
std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string metrics_object(const std::vector<RunResult>& results,
                           bool prefix, bool with_samples) {
    std::string out = "{";
    bool first = true;
    for (const auto& result : results) {
        for (const auto& m : result.metrics) {
            out += first ? "" : ", ";
            first = false;
            out += json_string(prefix ? result.workload + "." + m.name : m.name);
            out += ": {\"value\": " + json_number(m.value) +
                   ", \"unit\": " + json_string(m.unit);
            if (with_samples) {
                out += ", \"samples\": " + std::to_string(m.samples);
            }
            out += "}";
        }
    }
    return out + "}";
}

/// First line of /proc/cpuinfo naming the CPU model.
std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// A value from build-e2e/CMakeCache.txt ("" when absent).
std::string cmake_cache(const std::string& key) {
    std::ifstream in("build-e2e/CMakeCache.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + ":", 0) == 0) {
            return line.substr(line.find('=') + 1);
        }
    }
    return "";
}

} // namespace

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) throw std::logic_error("quantile of no samples");
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(at));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

void print_result(const RunResult& result) {
    std::printf("%s%s%s: %s (%zu attempted, %zu failed)\n",
                result.workload.c_str(), result.side.empty() ? "" : " side ",
                result.side.c_str(), result.correct() ? "correct" : "INCORRECT",
                result.attempted, result.failed);
    for (const auto& problem : result.problems) {
        std::printf("  check failed: %s\n", problem.c_str());
    }
    for (const auto& m : result.metrics) {
        std::printf("  %-28s %14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    std::fflush(stdout);
}

std::string summary_json(const std::vector<RunResult>& results) {
    bool correct = true;
    std::size_t attempted = 0, failed = 0;
    for (const auto& r : results) {
        correct = correct && r.correct();
        attempted += r.attempted;
        failed += r.failed;
    }
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " +
           metrics_object(results, results.size() > 1, false) + "}";
}

void write_result_file(const std::string& path, const HostContext& host,
                       const std::vector<RunResult>& results) {
    std::ostringstream out;
    out << "{\n  \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"cpu\": " << json_string(cpu_model())
        << ", \"compiler\": " << json_string(__VERSION__)
        << ", \"build_type\": " << json_string(cmake_cache("CMAKE_BUILD_TYPE"))
        << ", \"simd_option\": " << json_string(cmake_cache("REPUTE_SIMD"))
        << ", \"simd_backend\": "
        << json_string(repute::align::myers_simd_backend())
        << ", \"git\": " << json_string(host.git) << "},\n"
        << "  \"seed\": " << host.seed << ", \"seconds\": "
        << json_number(host.seconds) << ", \"scale\": "
        << json_number(host.scale) << ", \"trace\": "
        << (host.trace ? "true" : "false") << ",\n  \"runs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"workload\": "
            << json_string(r.workload) << ", \"side\": " << json_string(r.side)
            << ", \"repeat\": " << r.repeat << ", \"correct\": "
            << (r.correct() ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": "
            << metrics_object({r}, false, true) << "}";
    }
    out << "\n  ]\n}\n";
    std::ofstream file(path);
    file << out.str();
    if (!file) throw std::runtime_error("cannot write " + path);
}

} // namespace e2e
