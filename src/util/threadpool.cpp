#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace repute::util {

ThreadPool::ThreadPool(std::size_t n_threads) {
    const std::size_t n = std::max<std::size_t>(1, n_threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    auto future = packaged.get_future();
    {
        const std::lock_guard lock(mutex_);
        queue_.push_back(std::move(packaged));
    }
    cv_.notify_one();
    return future;
}

void ThreadPool::worker_loop() {
    while (true) {
        std::packaged_task<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // exceptions land in the associated future
    }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    const std::size_t n_tasks = std::min(n, thread_count());

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    std::vector<std::future<void>> futures;
    futures.reserve(n_tasks);
    for (std::size_t t = 0; t < n_tasks; ++t) {
        futures.push_back(submit([&] {
            try {
                while (!failed.load(std::memory_order_relaxed)) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= n) return;
                    fn(i);
                }
            } catch (...) {
                const std::lock_guard lock(error_mutex);
                if (!failed.exchange(true)) {
                    first_error = std::current_exception();
                }
            }
        }));
    }
    for (auto& f : futures) f.get();
    if (first_error) std::rethrow_exception(first_error);
}

} // namespace repute::util
