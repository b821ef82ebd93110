#include "ocl/queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace repute::ocl {

Event::Event(std::shared_future<LaunchStats> future)
    : state_(std::make_shared<State>()) {
    state_->future = std::move(future);
}

const LaunchStats& Event::wait() {
    if (!state_) {
        throw std::future_error(std::future_errc::no_state);
    }
    // Serializing on the state mutex both caches the stats exactly once
    // and keeps shared_future::get() off concurrent callers (get() on
    // one shared_future *object* is not thread-safe). A failed kernel
    // rethrows to every waiter.
    const std::lock_guard lock(state_->mutex);
    if (!state_->done) {
        state_->stats = state_->future.get();
        state_->done = true;
    }
    return state_->stats;
}

namespace {

/// Settles both dependency lists and returns the modeled instant the
/// dependent operation's inputs are ready: the max end (start + seconds)
/// over all completed events. A throwing `wait_list` dependency
/// propagates; a throwing `reuse_list` dependency is absorbed and
/// contributes no ready time — a failed launch never advanced the
/// modeled clock and never touched its buffers, so reuse needs no wait.
double settle_dependencies(std::vector<Event>& wait_list,
                           std::vector<Event>& reuse_list) {
    double ready = 0.0;
    for (Event& dependency : wait_list) {
        const LaunchStats& dep = dependency.wait();
        ready = std::max(ready, dep.start_seconds + dep.seconds);
    }
    for (Event& dependency : reuse_list) {
        try {
            const LaunchStats& dep = dependency.wait();
            ready = std::max(ready, dep.start_seconds + dep.seconds);
        } catch (...) {
            // Ordering only; the producer's error surfaces through its
            // own event.
        }
    }
    return ready;
}

} // namespace

Event CommandQueue::enqueue(KernelLaunch launch,
                            std::vector<Event> wait_list,
                            std::vector<Event> reuse_list) {
    Device* device = device_;
    const std::uint64_t queue_id = queue_id_;

    // Chain on the queue's previous event so the in-order contract
    // holds across launcher threads (std::async tasks would otherwise
    // race for the device and start out of submission order). The chain
    // only orders: a failed predecessor does not fail this launch (the
    // scheduler retries chunks on a queue whose last launch faulted).
    const std::lock_guard order_lock(order_mutex_);
    Event prev = last_;

    auto future =
        std::async(std::launch::async,
                   [device, queue_id, prev, launch = std::move(launch),
                    wait_list = std::move(wait_list),
                    reuse_list = std::move(reuse_list)]() mutable
                   -> LaunchStats {
                       // Dependencies first; a throwing wait-list
                       // dependency propagates and fails this event too.
                       const double ready =
                           settle_dependencies(wait_list, reuse_list);
                       if (prev.valid()) {
                           try {
                               prev.wait();
                           } catch (...) {
                               // Ordering only; the predecessor's error
                               // surfaces through its own event.
                           }
                       }
                       const LaunchStats stats =
                           device->execute(launch.n_items, launch.body,
                                           launch.scratch_bytes_per_item,
                                           ready);
                       if (auto* recorder = obs::trace()) {
                           obs::TraceSpan span;
                           span.name = launch.name;
                           span.device = device->name();
                           span.track = queue_id;
                           span.start_seconds = stats.start_seconds;
                           span.duration_seconds = stats.seconds;
                           recorder->record(std::move(span));
                       }
                       return stats;
                   })
            .share();
    Event event{std::move(future)};
    last_ = event;
    return event;
}

Event CommandQueue::enqueue_write(const Buffer& buffer, std::uint64_t bytes,
                                  std::vector<Event> wait_list,
                                  std::vector<Event> reuse_list) {
    return enqueue_transfer(buffer, bytes, /*host_to_device=*/true,
                            std::move(wait_list), std::move(reuse_list));
}

Event CommandQueue::enqueue_read(const Buffer& buffer, std::uint64_t bytes,
                                 std::vector<Event> wait_list,
                                 std::vector<Event> reuse_list) {
    return enqueue_transfer(buffer, bytes, /*host_to_device=*/false,
                            std::move(wait_list), std::move(reuse_list));
}

Event CommandQueue::enqueue_transfer(const Buffer& buffer,
                                     std::uint64_t bytes,
                                     bool host_to_device,
                                     std::vector<Event> wait_list,
                                     std::vector<Event> reuse_list) {
    if (!buffer.valid()) {
        throw std::invalid_argument("enqueue transfer on a released buffer");
    }
    if (bytes > buffer.bytes()) {
        throw std::invalid_argument(
            "transfer of " + std::to_string(bytes) + " bytes overruns '" +
            buffer.name() + "' (" + std::to_string(buffer.bytes()) +
            " bytes)");
    }
    Device* device = device_;
    // The task captures the shared counter block, not the Buffer: the
    // handle may be moved or released while the transfer is in flight.
    std::shared_ptr<BufferXfer> xfer = buffer.xfer();
    std::string buffer_name = buffer.name();

    // Transfers serialize per direction (one DMA engine per channel) so
    // channel-clock assignment is deterministic, but chain neither on
    // kernels nor on the opposite direction — staging batch k+1 overlaps
    // both compute and the drain of batch k.
    const std::lock_guard order_lock(order_mutex_);
    Event prev = host_to_device ? last_write_ : last_read_;

    auto future =
        std::async(std::launch::async,
                   [device, bytes, host_to_device, prev,
                    xfer = std::move(xfer),
                    buffer_name = std::move(buffer_name),
                    wait_list = std::move(wait_list),
                    reuse_list = std::move(reuse_list)]() mutable
                   -> LaunchStats {
                       const double ready =
                           settle_dependencies(wait_list, reuse_list);
                       if (prev.valid()) {
                           try {
                               prev.wait();
                           } catch (...) {
                               // Ordering only.
                           }
                       }
                       const LaunchStats stats =
                           device->transfer(bytes, host_to_device, ready);
                       if (host_to_device) {
                           xfer->bytes_written.fetch_add(
                               bytes, std::memory_order_relaxed);
                           xfer->writes.fetch_add(1,
                                                  std::memory_order_relaxed);
                       } else {
                           xfer->bytes_read.fetch_add(
                               bytes, std::memory_order_relaxed);
                           xfer->reads.fetch_add(1,
                                                 std::memory_order_relaxed);
                       }
                       if (auto* metrics = obs::metrics()) {
                           const char* direction = host_to_device
                                                       ? "bytes_written"
                                                       : "bytes_read";
                           metrics
                               ->counter(std::string("xfer.") + direction)
                               .add(bytes);
                           metrics
                               ->counter(host_to_device ? "xfer.writes"
                                                        : "xfer.reads")
                               .add();
                           metrics
                               ->counter("xfer.buf." + buffer_name + "." +
                                         direction)
                               .add(bytes);
                           if (stats.seconds > 0.0) {
                               metrics->histogram("xfer.seconds")
                                   .observe(stats.seconds);
                           }
                       }
                       // Zero-duration (unmodeled) transfers stay out of
                       // the trace so legacy exports are byte-identical.
                       if (stats.seconds > 0.0) {
                           if (auto* recorder = obs::trace()) {
                               obs::TraceSpan span;
                               span.name =
                                   (host_to_device ? "h2d:" : "d2h:") +
                                   buffer_name;
                               span.device = device->name();
                               span.track = host_to_device
                                                ? obs::kXferWriteTrack
                                                : obs::kXferReadTrack;
                               span.start_seconds = stats.start_seconds;
                               span.duration_seconds = stats.seconds;
                               span.detail =
                                   std::to_string(bytes) + " bytes";
                               recorder->record(std::move(span));
                           }
                       }
                       return stats;
                   })
            .share();
    Event event{std::move(future)};
    (host_to_device ? last_write_ : last_read_) = event;
    return event;
}

LaunchStats CommandQueue::run(KernelLaunch launch) {
    return enqueue(std::move(launch)).wait();
}

} // namespace repute::ocl
