#pragma once
// Fixed-size worker pool with a blocking task queue.
//
// Each simulated OpenCL device owns one pool sized to its compute-unit
// count, capped at the host's cores; NDRange dispatches are chopped
// into work-group tasks and fed through it. Sharded index builds run
// their per-shard builds on a pool of `--jobs` workers. The pool is
// intentionally simple (single mutex-protected queue) — dispatch
// granularity in this codebase is hundreds of microseconds and queue
// contention is negligible at that scale.

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
    /// iterations finish. Work is split into `thread_count * 4` chunks for
    /// load balance. Exceptions from fn propagate (first one wins).
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
