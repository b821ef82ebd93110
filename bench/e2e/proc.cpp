#include "proc.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <algorithm>
#include <fcntl.h>
#include <poll.h>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

extern char** environ;

namespace e2e {

namespace {

/// How often a running child's peak RSS is sampled.
constexpr int kSampleMs = 5;

/// posix_spawn file actions: stdin from /dev/null, stderr appended to
/// the log, stdout to `stdout_fd` (or the log when it is -1).
class SpawnActions {
public:
    SpawnActions(const std::string& log_path, int stdout_fd, int close_fd) {
        posix_spawn_file_actions_init(&actions_);
        posix_spawn_file_actions_addopen(&actions_, 0, "/dev/null", O_RDONLY,
                                         0);
        posix_spawn_file_actions_addopen(&actions_, 2, log_path.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        if (stdout_fd >= 0) {
            posix_spawn_file_actions_adddup2(&actions_, stdout_fd, 1);
            posix_spawn_file_actions_addclose(&actions_, stdout_fd);
        } else {
            posix_spawn_file_actions_adddup2(&actions_, 2, 1);
        }
        if (close_fd >= 0) {
            posix_spawn_file_actions_addclose(&actions_, close_fd);
        }
    }
    ~SpawnActions() { posix_spawn_file_actions_destroy(&actions_); }
    SpawnActions(const SpawnActions&) = delete;
    SpawnActions& operator=(const SpawnActions&) = delete;

    const posix_spawn_file_actions_t* get() const { return &actions_; }

private:
    posix_spawn_file_actions_t actions_;
};

pid_t spawn(const std::vector<std::string>& argv, const SpawnActions& actions) {
    std::vector<char*> raw;
    for (const auto& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
    raw.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, raw[0], actions.get(), nullptr, raw.data(), environ);
    if (rc != 0) {
        throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                                 std::strerror(rc));
    }
    return pid;
}

int decode_status(int status) {
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
}

/// VmHWM (the process's own peak resident set) in MB; 0 once the
/// process has exited.
double vm_hwm_mb(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

pid_t wait_child(pid_t pid, int* status, rusage* usage) {
    for (;;) {
        const pid_t got = wait4(pid, status, 0, usage);
        if (got >= 0 || errno != EINTR) return got;
    }
}

} // namespace

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& log_path) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    ChildResult result;
    const double start = now_s();
    pid_t pid = -1;
    try {
        const SpawnActions actions(log_path, fds[1], fds[0]);
        pid = spawn(argv, actions);
    } catch (...) {
        close(fds[0]);
        close(fds[1]);
        throw;
    }
    close(fds[1]);

    // A large pipe and read buffer keep the child from blocking on a full
    // pipe, which would stall its pipeline and inflate its memory.
    fcntl(fds[0], F_SETPIPE_SZ, 1 << 20);
    std::vector<char> buffer(1 << 20);
    // Peak RSS is sampled from the child's VmHWM while it runs: rusage's
    // ru_maxrss would include this process's own peak, which the kernel
    // carries into a child spawned with a shared address space.
    pollfd ready{fds[0], POLLIN, 0};
    double sampled = 0.0;
    for (;;) {
        const int events = poll(&ready, 1, kSampleMs);
        if (events < 0 && errno == EINTR) continue;
        if (now_s() - sampled >= kSampleMs * 1e-3) {
            result.max_rss_mb = std::max(result.max_rss_mb, vm_hwm_mb(pid));
            sampled = now_s();
        }
        if (events == 0) continue;
        const ssize_t n = read(fds[0], buffer.data(), buffer.size());
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        result.out.append(buffer.data(), static_cast<std::size_t>(n));
    }
    close(fds[0]);

    int status = 0;
    rusage usage{};
    if (wait_child(pid, &status, &usage) < 0) {
        throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
    result.wall_s = now_s() - start;
    result.status = decode_status(status);
    result.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                   static_cast<double>(usage.ru_stime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
    return result;
}

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& log_path) {
    const SpawnActions actions(log_path, -1, -1);
    pid_ = spawn(argv, actions);
}

Daemon::~Daemon() { stop(); }

bool Daemon::exited() {
    if (pid_ < 0) return true;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    status_ = decode_status(status);
    return true;
}

int Daemon::stop() {
    if (pid_ < 0) return status_;
    kill(pid_, SIGTERM);
    int status = 0;
    wait_child(pid_, &status, nullptr);
    pid_ = -1;
    status_ = decode_status(status);
    return status_;
}

double Daemon::cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    const auto paren = stat.rfind(')');
    if (paren == std::string::npos) {
        throw std::runtime_error("cannot read /proc stat of the daemon");
    }
    std::istringstream fields(stat.substr(paren + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field) fields >> skip;
    unsigned long long utime = 0, stime = 0;
    fields >> utime >> stime;
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
    const double peak = vm_hwm_mb(pid_);
    if (peak <= 0.0) throw std::runtime_error("cannot read VmHWM of the daemon");
    return peak;
}

} // namespace e2e
