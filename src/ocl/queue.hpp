#pragma once
// In-order command queue with asynchronous kernel launches.
//
// REPUTE's host program creates one queue per device, enqueues the
// mapping kernel on each with its share of the reads, and waits on all
// events — the task-parallel multi-device pattern of the paper (§III-B).
// enqueue() returns immediately; the kernel runs on a launcher thread
// using the device's worker pool. Event::wait() joins and yields the
// modeled LaunchStats.
//
// In-order means in order: each enqueue is implicitly chained on the
// queue's previous event (clEnqueue semantics on an in-order queue), so
// launches submitted through one queue start on the device in
// submission order — which keeps their modeled start times, and hence
// trace spans, deterministic. When an obs::TraceRecorder is installed,
// every completed launch records a span on (device, queue id).

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ocl/context.hpp"
#include "ocl/device.hpp"

namespace repute::ocl {

/// Kernel launch description (the NDRange plus the cost-model inputs).
struct KernelLaunch {
    std::string name;
    std::size_t n_items = 0;
    Device::WorkItem body; ///< must be safe to call concurrently
    std::uint64_t scratch_bytes_per_item = 0;
};

class Event {
public:
    Event() = default;

    /// Blocks until the kernel completes; rethrows kernel exceptions
    /// (including OclError, on every call). Idempotent, and safe to
    /// call concurrently from several threads — all copies of an Event
    /// share one mutex-guarded completion state, so scheduler workers
    /// may wait on the same event without external synchronization.
    const LaunchStats& wait();

    bool valid() const noexcept { return state_ != nullptr; }

private:
    friend class CommandQueue;
    struct State {
        std::shared_future<LaunchStats> future;
        std::mutex mutex;
        LaunchStats stats; ///< written once under mutex, then immutable
        bool done = false;
    };
    explicit Event(std::shared_future<LaunchStats> future);

    std::shared_ptr<State> state_;
};

class CommandQueue {
public:
    /// The device must outlive the queue. `queue_id` labels this
    /// queue's track in trace exports (tid within the device).
    explicit CommandQueue(Device& device, std::uint64_t queue_id = 0)
        : device_(&device), queue_id_(queue_id) {}

    CommandQueue(const CommandQueue&) = delete;
    CommandQueue& operator=(const CommandQueue&) = delete;

    Device& device() const noexcept { return *device_; }
    std::uint64_t queue_id() const noexcept { return queue_id_; }

    /// Asynchronous launch; kernels on one queue execute in order —
    /// each launch waits on the queue's previous event — while queues
    /// on different devices overlap.
    ///
    /// `wait_list` has OpenCL clEnqueueNDRangeKernel semantics: the
    /// kernel starts only after every listed event completed — on the
    /// modeled clock too: the launch starts no earlier than the latest
    /// wait-list event end, and any gap forced on the compute timeline
    /// is LaunchStats::queue_wait_seconds. A failed dependency fails
    /// this event too.
    ///
    /// `reuse_list` is an *ordering-only* dependency list: the launch
    /// starts after every listed event settled, but a failed reuse
    /// dependency neither fails this event nor contributes ready time
    /// (a failed launch never advanced the modeled clock and never
    /// touched its buffers, so reusing its buffer needs no wait). This
    /// is how double-buffered staging chains "buffer free again"
    /// dependencies without letting one injected kernel fault cascade
    /// through every later stage.
    Event enqueue(KernelLaunch launch, std::vector<Event> wait_list = {},
                  std::vector<Event> reuse_list = {});

    /// Asynchronously stages `bytes` host-to-device into `buffer` once
    /// every `wait_list` event completed (`reuse_list` as above). The
    /// modeled duration comes from the device's TransferSpec (zero when
    /// unmodeled) on the h2d DMA channel, which overlaps compute; the
    /// buffer's and device's transfer counters advance either way.
    /// Writes on one queue serialize against each other, not against
    /// kernels. Throws std::invalid_argument when `bytes` exceeds the
    /// buffer size.
    Event enqueue_write(const Buffer& buffer, std::uint64_t bytes,
                        std::vector<Event> wait_list = {},
                        std::vector<Event> reuse_list = {});

    /// Device-to-host counterpart of enqueue_write (d2h DMA channel).
    Event enqueue_read(const Buffer& buffer, std::uint64_t bytes,
                       std::vector<Event> wait_list = {},
                       std::vector<Event> reuse_list = {});

    /// Synchronous convenience: enqueue + wait.
    LaunchStats run(KernelLaunch launch);

private:
    Event enqueue_transfer(const Buffer& buffer, std::uint64_t bytes,
                           bool host_to_device,
                           std::vector<Event> wait_list,
                           std::vector<Event> reuse_list);

    Device* device_;
    std::uint64_t queue_id_;
    std::mutex order_mutex_; ///< guards the chain tails across threads
    Event last_;             ///< tail of the in-order kernel chain
    Event last_write_;       ///< tail of the h2d transfer chain
    Event last_read_;        ///< tail of the d2h transfer chain
};

} // namespace repute::ocl
