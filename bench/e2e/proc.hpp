#pragma once
// Child processes of the benchmark: the `repute` binary under test.
//
// Children are started with posix_spawn and reaped with wait4, so CPU
// time comes from the kernel's rusage and peak RSS from the kernel's
// VmHWM, not from anything the program reports about itself. stderr
// goes to a log file; stdout is either captured (SAM from `repute map
// --out -`) or sent to the log too.

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2e {

struct ChildResult {
    int status = -1;       ///< exit code, or 128 + signal
    double wall_s = 0.0;   ///< spawn to reap
    double cpu_s = 0.0;    ///< user + system
    double max_rss_mb = 0.0; ///< VmHWM, sampled while the child runs
    std::string out;       ///< captured stdout
};

/// Runs `argv` to completion with stdout captured.
ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& log_path);

/// A long-running child (the daemon). The destructor sends SIGTERM
/// and reaps it, so no child outlives its owner.
class Daemon {
public:
    Daemon(const std::vector<std::string>& argv, const std::string& log_path);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// True once the child has ended (it is then reaped).
    bool exited();
    /// SIGTERM, then wait; returns the exit status as in ChildResult.
    int stop();

    /// utime + stime so far, from /proc/<pid>/stat.
    double cpu_seconds() const;
    /// VmHWM (peak resident set) so far, from /proc/<pid>/status.
    double peak_rss_mb() const;

private:
    pid_t pid_ = -1;
    int status_ = -1;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

} // namespace e2e
