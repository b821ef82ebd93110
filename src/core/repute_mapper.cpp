#include "core/repute_mapper.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>

#include "core/scheduler.hpp"
#include "core/sharded_mapper.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "obs/trace.hpp"

namespace repute::core {

ShardView monolithic_view(const genomics::Reference& reference,
                          const index::FmIndex& fm) {
    return {&reference, &fm, 0, 0, static_cast<std::uint32_t>(fm.size())};
}

HeterogeneousMapper::HeterogeneousMapper(
    std::string display_name, std::vector<ShardView> shards,
    std::unique_ptr<filter::Seeder> seeder,
    HeterogeneousMapperConfig config, std::vector<DeviceShare> shares)
    : name_(std::move(display_name)), shards_(std::move(shards)),
      seeder_(std::move(seeder)), config_(config) {
    if (seeder_ == nullptr) {
        throw std::invalid_argument(name_ + ": seeder must not be null");
    }
    if (shards_.empty()) {
        throw std::invalid_argument(name_ + ": needs at least one shard");
    }
    std::uint32_t cursor = 0;
    for (const ShardView& v : shards_) {
        if (v.reference == nullptr || v.fm == nullptr ||
            v.own_hi <= v.own_lo || v.own_hi > v.fm->size() ||
            v.base() != cursor) {
            throw std::invalid_argument(
                name_ + ": shard owned ranges must tile the reference");
        }
        cursor = v.text_offset + v.own_hi;
    }
    double total = 0.0;
    for (const DeviceShare& s : shares) {
        if (s.device != nullptr && s.fraction > 0.0) {
            total += s.fraction;
            shares_.push_back(s);
        }
    }
    if (shares_.empty() || total <= 0.0) {
        throw std::invalid_argument(
            name_ + ": needs at least one device with a positive share");
    }
    for (DeviceShare& s : shares_) s.fraction /= total;
}

std::vector<std::size_t> HeterogeneousMapper::split_workload(
    std::size_t total) const {
    std::vector<double> fractions;
    fractions.reserve(shares_.size());
    for (const DeviceShare& s : shares_) fractions.push_back(s.fraction);
    return split_proportional(total, fractions);
}

std::uint64_t HeterogeneousMapper::max_image_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const ShardView& v : shards_) {
        bytes = std::max(bytes, v.image_bytes());
    }
    return bytes;
}

void HeterogeneousMapper::validate_overhangs(
    const genomics::ReadBatch& batch, std::uint32_t delta) const {
    if (shards_.size() < 2) return; // monolithic
    // Longest actual read in the batch, not batch.read_length: bucketed
    // batches carry the length-class ceiling there, and a too-small
    // overhang only matters for reads that truly reach past it.
    std::uint64_t n = 0;
    for (const auto& read : batch.reads) {
        n = std::max<std::uint64_t>(n, read.length());
    }
    if (n == 0) n = batch.read_length;
    const ShardView& last = shards_.back();
    const std::uint64_t total =
        std::uint64_t{last.text_offset} + last.own_hi;
    for (const ShardView& v : shards_) {
        // A shard reports candidate diagonals p in its owned range; the
        // verification window spans [p - delta, p + n + delta), so the
        // shard text must cover delta bp left and n + delta bp right of
        // the owned range (clamped at the reference ends — the shard
        // sees the same text boundary the monolithic index does).
        const std::uint64_t left_need =
            std::min<std::uint64_t>(delta, v.base());
        const std::uint64_t own_end =
            std::uint64_t{v.text_offset} + v.own_hi;
        const std::uint64_t right_need =
            std::min<std::uint64_t>(n + delta, total - own_end);
        if (v.own_lo < left_need ||
            v.fm->size() - v.own_hi < right_need) {
            throw std::invalid_argument(
                name_ + ": shard overlap overhang is too small for " +
                std::to_string(n) + " bp reads at delta " +
                std::to_string(delta) +
                " (needs >= read_length + delta) — rebuild the index "
                "with a larger --overlap");
        }
    }
}

/// One map() call: the batch, the edit budget and the per-unit outputs
/// its kernels write. Units are shard-major: unit = shard * reads + read.
struct HeterogeneousMapper::Job {
    const genomics::ReadBatch& batch;
    std::uint32_t delta;
    std::span<std::vector<ReadMapping>> slots;
    std::span<StageTotals> unit_stages;
    std::size_t reads;           ///< batch.size()
    std::uint64_t read_bytes;    ///< staged bytes per read
    std::uint64_t scratch_bytes; ///< kernel scratch per work item
    std::uint64_t out_bytes;     ///< first-n output bytes per read
};

/// One device's launch chain (the paper's host protocol, §III-B, for
/// one device), driven the same way by both schedules. Each launch is a
/// stage -> kernel -> drain event triple: the kernel hard-waits on its
/// read write (and on the image write when its shard was just swapped
/// in), and the drain waits on the kernel. With two buffer sets, launch
/// k+1's write overlaps launch k's kernel. Buffer-reuse dependencies
/// ride the ordering-only reuse list: a faulted kernel never touched
/// its buffers, so reusing them needs no wait and no failure
/// propagation. Launches settle in enqueue order, and settling does all
/// of the accounting. One thread at a time drives a lane.
class HeterogeneousMapper::Lane {
public:
    Lane(const HeterogeneousMapper& mapper, const Job& job,
         ocl::Context& context, ocl::Device& device,
         std::string kernel_name)
        : mapper_(mapper), job_(job), context_(context), device_(device),
          kernel_name_(std::move(kernel_name)), queue_(device),
          resident_(context.allocate(device, mapper.max_image_bytes(),
                                     "index+reference")),
          busy_by_shard_(mapper.shards_.size(), 0.0) {
        // Largest launch whose read and output buffers fit the device
        // ceilings (quarter-of-RAM per buffer, remaining global memory
        // in total, next to the resident image). Oversized workloads run
        // as several launches reusing the same buffers — the paper's
        // fallback. Devices with a modeled TransferSpec run two buffer
        // sets unless double buffering is off; when even one read does
        // not fit twice, that degrades to one set rather than failing.
        const auto& profile = device.profile();
        const std::uint64_t per_read = job.read_bytes + job.out_bytes;
        sets_ = (profile.transfer.modeled() && mapper.config_.double_buffer)
                    ? 2
                    : 1;
        const std::uint64_t quarter = profile.max_single_allocation();
        const std::uint64_t free_bytes =
            profile.global_memory_bytes - device.allocated_bytes();
        std::uint64_t per_set = free_bytes / (sets_ * per_read);
        if (per_set == 0 && sets_ > 1) {
            sets_ = 1;
            per_set = free_bytes / per_read;
        }
        max_reads_ = std::min({quarter / job.out_bytes,
                               quarter / job.read_bytes, per_set});
        if (max_reads_ == 0) {
            throw ocl::OclError(
                ocl::OclStatus::MemObjectAllocFail,
                mapper.name_ + ": device " + device.name() +
                    " cannot hold the buffers of even one read");
        }
    }

    /// Most reads one launch can carry on this device.
    std::uint64_t max_reads() const noexcept { return max_reads_; }

    /// Allocates the buffer sets for launches of up to `reads` reads.
    void allocate(std::size_t reads) {
        for (std::size_t set = 0; set < sets_; ++set) {
            reads_.push_back(context_.allocate(
                device_, reads * job_.read_bytes, "reads"));
            outputs_.push_back(context_.allocate(
                device_, reads * job_.out_bytes, "mappings"));
        }
        last_kernel_.resize(sets_);
        last_drain_.resize(sets_);
    }

    /// Makes `shard` resident, writing its image only on a shard switch.
    /// The write waits (ordering only) on the newest kernel: the
    /// in-order chain makes it the last possible user of the old image.
    void stage(std::size_t shard) {
        if (shard == current_shard_) {
            ++hits_;
            return;
        }
        std::vector<ocl::Event> reuse;
        if (newest_kernel_.valid()) reuse.push_back(newest_kernel_);
        image_writes_.push_back(
            {shard, queue_.enqueue_write(
                        resident_, mapper_.shards_[shard].image_bytes(), {},
                        std::move(reuse))});
        image_pending_ = true;
        current_shard_ = shard;
    }

    /// Enqueues write -> kernel -> drain mapping reads [read_base,
    /// read_base + count) against `shard`.
    void launch(std::size_t shard, std::size_t read_base,
                std::size_t count) {
        stage(shard);
        Launch l;
        l.shard = shard;
        l.unit_base = shard * job_.reads + read_base;
        l.count = count;
        l.set = launches_++ % sets_;
        l.prior_kernel = last_kernel_[l.set];
        l.prior_drain = last_drain_[l.set];

        // The set's read buffer is free again once the kernel that last
        // used it completed.
        std::vector<ocl::Event> write_reuse;
        if (l.prior_kernel.valid()) write_reuse.push_back(l.prior_kernel);
        l.write = queue_.enqueue_write(reads_[l.set], count * job_.read_bytes,
                                       {}, std::move(write_reuse));

        const ShardView& view = mapper_.shards_[shard];
        KernelConfig config = mapper_.config_.kernel;
        config.report_lo = view.own_lo;
        config.report_hi = view.own_hi;
        ocl::KernelLaunch kernel;
        kernel.name = kernel_name_;
        kernel.n_items = count;
        kernel.scratch_bytes_per_item = job_.scratch_bytes;
        kernel.body = [&mapper = mapper_, &job = job_, &view, config,
                       unit_base = l.unit_base,
                       read_base](std::size_t i) -> std::uint64_t {
            // Work items own disjoint unit slots, and a retried launch
            // rewrites exactly the same ones (the stage totals
            // accumulate, so they restart from zero). One scratch per
            // pool thread: after the first read the kernel runs
            // allocation-free on that thread.
            const std::size_t unit = unit_base + i;
            job.unit_stages[unit] = StageTotals{};
            thread_local KernelScratch kernel_scratch;
            return map_read_workitem(
                *view.fm, *view.reference, *mapper.seeder_,
                job.batch.reads[read_base + i], job.delta, config,
                job.slots[unit], kernel_scratch, &job.unit_stages[unit]);
        };
        std::vector<ocl::Event> kernel_wait{l.write};
        if (image_pending_) {
            kernel_wait.push_back(image_writes_.back().event);
            image_pending_ = false;
        }
        std::vector<ocl::Event> kernel_reuse;
        if (l.prior_drain.valid()) kernel_reuse.push_back(l.prior_drain);
        l.kernel = queue_.enqueue(std::move(kernel), std::move(kernel_wait),
                                  std::move(kernel_reuse));
        l.drain = queue_.enqueue_read(outputs_[l.set],
                                      count * job_.out_bytes, {l.kernel});
        newest_kernel_ = last_kernel_[l.set] = l.kernel;
        last_drain_[l.set] = l.drain;
        unsettled_.push_back(std::move(l));
    }

    /// Waits on the oldest unsettled launch — write, then kernel, then
    /// drain — accounts it, and returns its kernel stats. Rethrows the
    /// kernel's fault.
    ocl::LaunchStats settle() {
        Launch l = std::move(unsettled_.front());
        unsettled_.pop_front();

        // The write cannot fault; account it before the kernel wait so a
        // retried launch still shows the staging it burned.
        const ocl::LaunchStats& write_stats = l.write.wait();
        run_.bytes_staged += l.count * job_.read_bytes;
        run_.transfer_seconds += write_stats.seconds;

        ocl::LaunchStats stats;
        try {
            stats = l.kernel.wait();
        } catch (...) {
            // The faulted kernel never touched the set's buffers, so
            // their reuse dependencies stay on the launch before it.
            last_kernel_[l.set] = l.prior_kernel;
            last_drain_[l.set] = l.prior_drain;
            throw;
        }
        run_.stats.seconds += stats.seconds;
        wait_seconds_ += stats.queue_wait_seconds;
        last_kernel_end_ =
            std::max(last_kernel_end_, stats.start_seconds + stats.seconds);
        busy_by_shard_[l.shard] += stats.seconds;
        run_.stats.items += stats.items;
        run_.stats.total_ops += stats.total_ops;
        run_.stats.scratch_bytes_per_item = stats.scratch_bytes_per_item;
        run_.stats.utilization = stats.utilization;

        const ocl::LaunchStats& drain_stats = l.drain.wait();
        run_.bytes_drained += l.count * job_.out_bytes;
        run_.transfer_seconds += drain_stats.seconds;
        last_drain_end_ =
            std::max(last_drain_end_,
                     drain_stats.start_seconds + drain_stats.seconds);

        obs::StageCounters launch_stage;
        for (std::size_t u = l.unit_base; u < l.unit_base + l.count; ++u) {
            launch_stage += job_.unit_stages[u];
        }
        run_.stage += launch_stage;
        if (auto* recorder = obs::trace()) {
            obs::record_stage_spans(
                *recorder, device_.name(), /*track=*/0, stats.start_seconds,
                device_.profile().dispatch_overhead_seconds, stats.seconds,
                launch_stage);
        }
        return stats;
    }

    /// How far the last output drain outlived the last kernel; the tail
    /// extends the device's elapsed time like any other stall.
    double drain_tail_seconds() const noexcept {
        return std::max(0.0, last_drain_end_ - last_kernel_end_);
    }

    /// Kernel execution plus queue-wait stalls plus the drain tail.
    double elapsed_seconds() const noexcept {
        return run_.stats.seconds + wait_seconds_ + drain_tail_seconds();
    }

    /// Settles every image write, then every unsettled launch in
    /// enqueue order (the static schedule's whole slice; the dynamic
    /// runner has settled its launches already), and returns the
    /// device's run record. Publishes the shard-staging tallies when the
    /// plan is sharded.
    DeviceRun finish() {
        for (ImageWrite& image : image_writes_) {
            const ocl::LaunchStats& stats = image.event.wait();
            run_.bytes_staged += mapper_.shards_[image.shard].image_bytes();
            run_.transfer_seconds += stats.seconds;
        }
        while (!unsettled_.empty()) settle();
        run_.device_name = device_.name();
        run_.stall_seconds = wait_seconds_ + drain_tail_seconds();
        if (mapper_.shards_.size() > 1) export_shard_metrics();
        return run_;
    }

private:
    struct Launch {
        std::size_t shard = 0;
        std::size_t unit_base = 0;
        std::size_t count = 0;
        std::size_t set = 0;
        ocl::Event write, kernel, drain;
        /// The set's reuse events before this launch.
        ocl::Event prior_kernel, prior_drain;
    };
    struct ImageWrite {
        std::size_t shard;
        ocl::Event event;
    };

    void export_shard_metrics() const {
        auto* m = obs::metrics();
        if (m == nullptr || image_writes_.empty()) return;
        std::uint64_t image_bytes = 0;
        for (const ImageWrite& image : image_writes_) {
            image_bytes += mapper_.shards_[image.shard].image_bytes();
        }
        m->counter("shard.residency_hits").add(hits_);
        m->counter("shard.restages").add(image_writes_.size() - 1);
        m->counter("shard.restage_bytes").add(image_bytes);
        for (const double seconds : busy_by_shard_) {
            if (seconds > 0.0) {
                m->histogram("shard.busy_seconds").observe(seconds);
            }
        }
    }

    const HeterogeneousMapper& mapper_;
    const Job& job_;
    ocl::Context& context_;
    ocl::Device& device_;
    std::string kernel_name_;
    ocl::CommandQueue queue_;
    ocl::Buffer resident_;             ///< the current shard's image
    std::vector<ocl::Buffer> reads_;   ///< one per buffer set
    std::vector<ocl::Buffer> outputs_; ///< one per buffer set
    std::size_t sets_ = 1;
    std::uint64_t max_reads_ = 0;

    std::size_t current_shard_ = SIZE_MAX;
    std::vector<ImageWrite> image_writes_;
    bool image_pending_ = false; ///< the next kernel waits on the image
    std::vector<ocl::Event> last_kernel_; ///< per buffer set
    std::vector<ocl::Event> last_drain_;  ///< per buffer set
    ocl::Event newest_kernel_;
    std::size_t launches_ = 0;
    std::deque<Launch> unsettled_;

    DeviceRun run_;
    double wait_seconds_ = 0.0;
    double last_kernel_end_ = 0.0;
    double last_drain_end_ = 0.0;
    std::uint64_t hits_ = 0; ///< launches that found their shard resident
    std::vector<double> busy_by_shard_; ///< kernel seconds per shard
};

namespace {

/// Publishes the run's transfer/compute overlap ratio once any modeled
/// transfer time was spent (unmodeled runs leave the gauge untouched so
/// legacy metric dumps are unchanged).
void finish_transfer_accounting(const MapResult& result) {
    double transfer = 0.0;
    for (const DeviceRun& run : result.device_runs) {
        transfer += run.transfer_seconds;
    }
    if (transfer <= 0.0) return;
    if (auto* m = obs::metrics()) {
        m->gauge("xfer.overlap_ratio").set(result.transfer_overlap_ratio());
    }
}

} // namespace

MapResult HeterogeneousMapper::map(const genomics::ReadBatch& batch,
                                   std::uint32_t delta) {
    validate_overhangs(batch, delta);
    const std::size_t reads = batch.size();
    const bool sharded = shards_.size() > 1;
    MapResult result;
    result.per_read.resize(reads);
    // One shard's units are the reads themselves, so its kernel writes
    // straight into the result; K shards write local-coordinate lists
    // into per-unit slots, merged below.
    std::vector<std::vector<ReadMapping>> slots(
        sharded ? shards_.size() * reads : 0);
    if (reads > 0) {
        std::vector<StageTotals> unit_stages(shards_.size() * reads);
        const Job job{
            batch,
            delta,
            sharded ? std::span(slots) : std::span(result.per_read),
            unit_stages,
            reads,
            batch.read_length,
            kernel_scratch_bytes(*seeder_, batch.read_length, delta),
            // packed (position, edit, strand) slot per mapping
            std::uint64_t{config_.kernel.max_locations_per_read} * 8};
        if (config_.schedule == ScheduleMode::Dynamic) {
            map_dynamic(job, result);
        } else {
            map_static(job, result);
        }
        finish_transfer_accounting(result);
    }
    if (!sharded) return result;

    // Shift per-shard outputs to global coordinates, then merge.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const std::uint32_t shift = shards_[s].text_offset;
        for (std::size_t r = 0; r < reads; ++r) {
            for (ReadMapping& m : slots[s * reads + r]) {
                m.position += shift;
            }
        }
    }
    std::vector<std::span<const ReadMapping>> spans(shards_.size());
    for (std::size_t r = 0; r < reads; ++r) {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            spans[s] = slots[s * reads + r];
        }
        merge_sharded_read(spans, config_.kernel.max_locations_per_read,
                           result.per_read[r]);
    }

    if (auto* m = obs::metrics()) {
        m->gauge("shard.count").set(static_cast<double>(shards_.size()));
        m->gauge("shard.peak_resident_bytes")
            .set(static_cast<double>(max_image_bytes()));
    }
    return result;
}

void HeterogeneousMapper::map_static(const Job& job, MapResult& result) {
    std::vector<ocl::Device*> devices;
    devices.reserve(shares_.size());
    for (const DeviceShare& s : shares_) devices.push_back(s.device);
    ocl::Context context(devices);

    // Each device walks its contiguous slice shard-major through its
    // lane, in launches no larger than its buffer ceiling; every lane
    // is enqueued before any is settled, so the devices run
    // concurrently.
    const auto counts = split_workload(job.reads);
    std::deque<Lane> lanes;
    std::size_t end = 0;
    for (std::size_t d = 0; d < shares_.size(); ++d) {
        const std::size_t begin = end;
        end += counts[d];
        if (counts[d] == 0) continue;
        ocl::Device& device = *shares_[d].device;
        Lane& lane =
            lanes.emplace_back(*this, job, context, device, name_ + "::map");
        const auto max_chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(counts[d], lane.max_reads()));
        auto* m = obs::metrics();
        if (m != nullptr && max_chunk < counts[d]) {
            m->counter("mapper.buffer_ceiling_splits")
                .add((counts[d] + max_chunk - 1) / max_chunk - 1);
        }
        lane.allocate(max_chunk);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            for (std::size_t lo = begin; lo < end; lo += max_chunk) {
                lane.launch(s, lo, std::min(max_chunk, end - lo));
            }
        }
    }

    // Task-parallel completion: the mapping time is the slowest
    // device's elapsed total, computed from the run's own events, so
    // concurrent mappers sharing a device (the serve pool) cannot skew
    // each other's numbers.
    double slowest = 0.0;
    for (Lane& lane : lanes) {
        result.device_runs.push_back(lane.finish());
        slowest = std::max(slowest, lane.elapsed_seconds());
    }
    result.mapping_seconds = slowest;
}

void HeterogeneousMapper::map_dynamic(const Job& job, MapResult& result) {
    const std::size_t total_units = shards_.size() * job.reads;

    // Fleet = shares whose device can run the kernel at all; the rest
    // are dropped up front (the scheduler would only quarantine them).
    std::vector<ocl::Device*> devices;
    std::vector<double> warm_start;
    for (const DeviceShare& s : shares_) {
        if (job.scratch_bytes > s.device->profile().private_memory_per_unit) {
            continue;
        }
        devices.push_back(s.device);
        warm_start.push_back(s.fraction);
    }
    if (devices.empty()) {
        throw ocl::OclError(ocl::OclStatus::OutOfResources,
                            name_ + ": no device can run this kernel");
    }

    ocl::Context context(devices);

    // Any chunk must fit the buffer budget of EVERY device, because a
    // failed chunk may be requeued anywhere in the fleet (the paper's
    // multi-run fallback logic, applied fleet-wide).
    std::deque<Lane> lanes;
    std::uint64_t fleet_chunk_cap = std::numeric_limits<std::uint64_t>::max();
    for (ocl::Device* device : devices) {
        const Lane& lane = lanes.emplace_back(*this, job, context, *device,
                                              name_ + "::map-chunk");
        fleet_chunk_cap = std::min(fleet_chunk_cap, lane.max_reads());
    }

    SchedulerConfig scheduler_config = config_.scheduler;
    scheduler_config.max_chunk_items =
        scheduler_config.max_chunk_items == 0
            ? static_cast<std::size_t>(fleet_chunk_cap)
            : std::min(scheduler_config.max_chunk_items,
                       static_cast<std::size_t>(fleet_chunk_cap));

    if (auto* m = obs::metrics()) {
        m->gauge("mapper.fleet_chunk_cap")
            .set(static_cast<double>(fleet_chunk_cap));
        if (static_cast<std::size_t>(fleet_chunk_cap) < total_units) {
            m->counter("mapper.buffer_ceiling_splits").add();
        }
    }

    ChunkScheduler scheduler(devices, warm_start, scheduler_config);

    // Every lane's buffers are sized to the largest planned chunk.
    std::size_t largest_chunk = 1;
    for (const ChunkRecord& c : scheduler.plan(total_units)) {
        largest_chunk = std::max(largest_chunk, c.count);
    }
    for (Lane& lane : lanes) lane.allocate(largest_chunk);
    // One shard never changes, so every device stages it up front —
    // even a device the scheduler then hands no chunk. With K shards a
    // lane stages each shard at its first chunk on that shard and keeps
    // it resident across chunks.
    if (shards_.size() == 1) {
        for (Lane& lane : lanes) lane.stage(0);
    }

    ScheduleStats schedule = scheduler.run(
        total_units,
        [&](ocl::Device& device, std::size_t begin, std::size_t count) {
            // The scheduler hands device d's chunks only to its worker
            // d, so each lane is driven by exactly one thread.
            Lane& lane = lanes[static_cast<std::size_t>(
                std::find(devices.begin(), devices.end(), &device) -
                devices.begin())];
            // A chunk may straddle shard boundaries in the flattened
            // unit space; it runs as one launch per shard segment.
            ocl::LaunchStats agg;
            const std::size_t end = begin + count;
            for (std::size_t unit = begin; unit < end;) {
                const std::size_t s = unit / job.reads;
                const std::size_t seg_end =
                    std::min(end, (s + 1) * job.reads);
                lane.launch(s, unit - s * job.reads, seg_end - unit);
                const ocl::LaunchStats stats = lane.settle(); // throws
                if (unit == begin) {
                    agg = stats;
                } else {
                    agg.items += stats.items;
                    agg.total_ops += stats.total_ops;
                    agg.seconds += stats.seconds;
                    agg.queue_wait_seconds += stats.queue_wait_seconds;
                }
                unit = seg_end;
            }
            return agg;
        });

    // The scheduler's chunk-level totals are the device's stats; the
    // lane adds its drain tail to the stalls (and so to the makespan).
    for (std::size_t d = 0; d < devices.size(); ++d) {
        DeviceScheduleStats& pd = schedule.per_device[d];
        pd.stall_seconds += lanes[d].drain_tail_seconds();
        DeviceRun run = lanes[d].finish();
        run.stats = pd.stats;
        run.stall_seconds = pd.stall_seconds;
        result.device_runs.push_back(std::move(run));
    }
    result.mapping_seconds = schedule.makespan_seconds();
    result.schedule = std::move(schedule);
}

std::unique_ptr<HeterogeneousMapper> make_sharded_repute(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config) {
    return std::make_unique<HeterogeneousMapper>(
        shards.size() > 1 ? "REPUTE-sharded" : "REPUTE", std::move(shards),
        std::make_unique<filter::MemoryOptimizedSeeder>(config.kernel.s_min),
        config, std::move(shares));
}

std::unique_ptr<HeterogeneousMapper> make_sharded_coral(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config) {
    config.kernel.collapse_candidates = false; // streaming verification
    return std::make_unique<HeterogeneousMapper>(
        shards.size() > 1 ? "CORAL-sharded" : "CORAL", std::move(shards),
        std::make_unique<filter::HeuristicSeeder>(config.kernel.s_min),
        config, std::move(shares));
}

std::unique_ptr<HeterogeneousMapper> make_repute(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares, HeterogeneousMapperConfig config) {
    return make_sharded_repute({monolithic_view(reference, fm)},
                               std::move(shares), config);
}

std::unique_ptr<HeterogeneousMapper> make_coral(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares, HeterogeneousMapperConfig config) {
    return make_sharded_coral({monolithic_view(reference, fm)},
                              std::move(shares), config);
}

std::vector<DeviceShare> balanced_shares(
    const std::vector<ocl::Device*>& devices,
    std::uint64_t scratch_bytes_per_item) {
    std::vector<DeviceShare> shares;
    shares.reserve(devices.size());
    for (ocl::Device* device : devices) {
        if (device == nullptr) continue;
        const auto& profile = device->profile();
        double fraction = 0.0;
        if (scratch_bytes_per_item <= profile.private_memory_per_unit) {
            fraction = profile.ops_per_unit_per_second *
                       profile.compute_units *
                       device->utilization_for_scratch(
                           scratch_bytes_per_item);
        }
        shares.push_back({device, fraction});
    }
    return shares;
}

} // namespace repute::core
