#pragma once
// The two kinds of run: timed (end-to-end metrics, tracing off) and
// traced (per-layer metrics from an in-process replay).

#include <string>

#include "inputs.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace e2e {

struct RunOptions {
    std::string repute;       ///< the `repute` binary under test
    double seconds = 10.0;    ///< measurement window
    std::string out_dir = "build-e2e/out";
};

/// Spawns the real binary: `repute map` invocations back to back for
/// the window, or a daemon under 4 closed-loop clients.
RunResult run_timed(const Workload& w, const Inputs& inputs,
                    const RunOptions& options);

/// Replays the workload's inputs layer by layer in this process, with
/// spans around each layer call, and writes
/// <out_dir>/<workload>.trace.json.
RunResult run_traced(const Workload& w, const Inputs& inputs,
                     const RunOptions& options);

} // namespace e2e
