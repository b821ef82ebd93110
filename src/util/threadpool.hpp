#pragma once
// Fixed-size worker pool with a blocking task queue.
//
// Each simulated OpenCL device owns one pool sized to its compute-unit
// count, capped at the host's cores; NDRange dispatches run through
// parallel_for, whose workers claim work items one at a time
// from a shared atomic cursor. Sharded index builds run their per-shard
// builds on a pool of `--jobs` workers. The task queue is intentionally
// simple (single mutex-protected deque): parallel_for enqueues one task
// per worker, so it sees a handful of pushes per launch.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace repute::util {

class ThreadPool {
public:
    /// Spawns `n_threads` workers (at least 1).
    explicit ThreadPool(std::size_t n_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const noexcept { return workers_.size(); }

    /// Enqueues a task; the future resolves when it has run.
    std::future<void> submit(std::function<void()> task);

    /// Runs fn(i) for i in [0, n) across the pool and blocks until all
    /// iterations finish. min(n, thread_count) tasks each claim the next
    /// index from a shared cursor, so a run of slow iterations never
    /// strands the rest of the pool behind one fixed chunk. Exceptions
    /// from fn propagate (first one wins).
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

private:
    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;

    void worker_loop();
};

} // namespace repute::util
