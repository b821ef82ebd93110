#pragma once
// Results of one workload run, their printout and the result JSON.

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 1; ///< observations behind the value
};

struct RunResult {
    std::string workload;
    std::string side; ///< "a"/"b" in paired-binary runs, else empty
    std::size_t repeat = 0;
    std::size_t attempted = 0; ///< reads (or mates) submitted
    std::size_t failed = 0;    ///< reads missing, wrong or in failed calls
    std::vector<std::string> problems; ///< one line per failed check
    std::vector<Metric> metrics;

    bool correct() const { return failed == 0 && problems.empty(); }
    void add(std::string name, std::string unit, double value,
             std::size_t samples = 1) {
        metrics.push_back({std::move(name), std::move(unit), value, samples});
    }
    void fail(std::string problem, std::size_t reads) {
        problems.push_back(std::move(problem));
        failed += reads;
    }
};

/// Median and linear-interpolated quantile of a non-empty sample.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Where and how the numbers were taken.
struct HostContext {
    std::string git = "unknown";
    std::uint64_t seed = 1;
    double seconds = 0.0;
    double scale = 1.0;
    bool trace = false;
};

/// Human-readable lines, one per metric, with units and sample counts.
void print_result(const RunResult& result);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// With several results, metric names are prefixed "<workload>.".
std::string summary_json(const std::vector<RunResult>& results);

/// The result file: host context plus every run's metrics.
void write_result_file(const std::string& path, const HostContext& host,
                       const std::vector<RunResult>& results);

} // namespace e2e
