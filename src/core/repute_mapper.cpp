#include "core/repute_mapper.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/scheduler.hpp"
#include "core/sharded_mapper.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

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
    std::vector<std::size_t> counts(shares_.size(), 0);
    std::size_t assigned = 0;
    for (std::size_t i = 0; i + 1 < shares_.size(); ++i) {
        counts[i] = static_cast<std::size_t>(
            static_cast<double>(total) * shares_[i].fraction);
        assigned += counts[i];
    }
    counts.back() = total - assigned;
    return counts;
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

KernelConfig HeterogeneousMapper::shard_kernel(std::size_t shard) const {
    KernelConfig k = config_.kernel;
    k.report_lo = shards_[shard].own_lo;
    k.report_hi = shards_[shard].own_hi;
    return k;
}

HeterogeneousMapper::ChunkCeiling HeterogeneousMapper::chunk_ceiling(
    const ocl::Device& device, std::uint64_t read_bytes,
    std::uint64_t out_bytes_per_read) const {
    // Largest chunk whose read and output buffers fit the device
    // ceilings (quarter-of-RAM per buffer, remaining global memory in
    // total, next to the resident image already allocated). Oversized
    // workloads run as several kernel invocations reusing the same
    // buffers — the paper's fallback. Devices with a modeled
    // TransferSpec run double-buffered (two chunk buffer sets) unless
    // disabled; when even one read does not fit twice, that degrades to
    // a single set rather than failing.
    const auto& profile = device.profile();
    std::size_t sets =
        (profile.transfer.modeled() && config_.double_buffer) ? 2 : 1;
    const std::uint64_t quarter = profile.max_single_allocation();
    const std::uint64_t free_bytes =
        profile.global_memory_bytes - device.allocated_bytes();
    std::uint64_t max_chunk = std::min(quarter / out_bytes_per_read,
                                       quarter / read_bytes);
    std::uint64_t per_set =
        free_bytes / (sets * (read_bytes + out_bytes_per_read));
    if (per_set == 0 && sets > 1) {
        sets = 1;
        per_set = free_bytes / (read_bytes + out_bytes_per_read);
    }
    max_chunk = std::min(max_chunk, per_set);
    if (max_chunk == 0) {
        throw ocl::OclError(ocl::OclStatus::MemObjectAllocFail,
                            name_ + ": device " + device.name() +
                                " cannot hold the buffers of even one read");
    }
    return {max_chunk, sets};
}

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

/// Per-device shard staging tallies, summed into the obs registry once
/// a multi-shard run completes (workers touch only their own entry — no
/// atomics).
struct ShardTally {
    std::uint64_t hits = 0;     ///< launches with the shard resident
    std::uint64_t restages = 0; ///< resident-image swaps after the first
    std::uint64_t restage_bytes = 0; ///< shard-image bytes staged
    std::vector<double> busy_by_shard; ///< kernel seconds per shard
};

void export_shard_metrics(std::span<const ShardTally> tallies) {
    auto* m = obs::metrics();
    if (m == nullptr) return;
    for (const ShardTally& t : tallies) {
        m->counter("shard.residency_hits").add(t.hits);
        m->counter("shard.restages").add(t.restages);
        m->counter("shard.restage_bytes").add(t.restage_bytes);
        for (const double seconds : t.busy_by_shard) {
            if (seconds > 0.0) {
                m->histogram("shard.busy_seconds").observe(seconds);
            }
        }
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
        const UnitMappings out =
            sharded ? UnitMappings(slots) : UnitMappings(result.per_read);
        if (config_.schedule == ScheduleMode::Dynamic) {
            map_dynamic(batch, delta, out, unit_stages, result);
        } else {
            map_static(batch, delta, out, unit_stages, result);
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

void HeterogeneousMapper::map_static(const genomics::ReadBatch& batch,
                                     std::uint32_t delta,
                                     UnitMappings slots,
                                     UnitStages unit_stages,
                                     MapResult& result) {
    const std::size_t reads = batch.size();
    const std::size_t n = batch.read_length;
    const std::uint64_t scratch = kernel_scratch_bytes(*seeder_, n, delta);
    const std::uint64_t out_bytes_per_read =
        static_cast<std::uint64_t>(config_.kernel.max_locations_per_read) *
        8; // packed (position, edit, strand) slot

    std::vector<ocl::Device*> devices;
    devices.reserve(shares_.size());
    for (const DeviceShare& s : shares_) devices.push_back(s.device);
    ocl::Context context(devices);

    const auto counts = split_workload(reads);

    // Per-device state kept alive until every event completed. Each
    // chunk runs as a stage -> kernel -> drain event triple: the write
    // stages the chunk's reads host-to-device, the kernel hard-waits on
    // it, and the read drains the output buffer. With double buffering
    // (and a modeled TransferSpec) two buffer sets alternate, so chunk
    // k+1's write overlaps chunk k's kernel and the steady-state cost
    // per chunk drops from stage+compute+drain to max(stage, compute,
    // drain). Buffer-reuse dependencies ride the ordering-only reuse
    // list: a failed kernel never touched its buffers, so reusing them
    // needs no wait and no failure propagation. The device walks the
    // shards in order through a single resident buffer sized for the
    // largest shard image, so it never holds more than one shard.
    struct Launch {
        std::size_t shard;
        std::size_t lo, hi; ///< read range
    };
    struct DeviceWork {
        ocl::Buffer resident;              ///< current shard's image
        std::vector<ocl::Buffer> reads;    ///< one per buffer set
        std::vector<ocl::Buffer> outputs;  ///< one per buffer set
        std::vector<ocl::Event> resident_writes; ///< one per shard
        std::vector<ocl::Event> writes;
        std::vector<ocl::Event> kernels;
        std::vector<ocl::Event> reads_done; ///< output drains
        std::vector<Launch> ranges;
        std::size_t sets = 1;
    };
    std::vector<DeviceWork> work(shares_.size());
    std::vector<ShardTally> tallies(shares_.size());

    for (std::size_t d = 0; d < shares_.size(); ++d) {
        if (counts[d] == 0) continue;
        ocl::Device& device = *shares_[d].device;
        DeviceWork& dw = work[d];
        ShardTally& tally = tallies[d];
        tally.busy_by_shard.resize(shards_.size(), 0.0);

        dw.resident =
            context.allocate(device, max_image_bytes(), "index+reference");
        const ChunkCeiling ceiling =
            chunk_ceiling(device, n, out_bytes_per_read);
        dw.sets = ceiling.buffer_sets;
        const auto max_chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(counts[d], ceiling.reads));
        if (max_chunk < counts[d]) {
            util::logf(util::LogLevel::Info,
                       "%s: %zu reads exceed %s memory; running %zu-read "
                       "kernel invocations",
                       name_.c_str(), counts[d], device.name().c_str(),
                       max_chunk);
            if (auto* m = obs::metrics()) {
                m->counter("mapper.buffer_ceiling_splits")
                    .add((counts[d] + max_chunk - 1) / max_chunk - 1);
            }
        }

        for (std::size_t s = 0; s < dw.sets; ++s) {
            dw.reads.push_back(
                context.allocate(device, max_chunk * n, "reads"));
            dw.outputs.push_back(context.allocate(
                device, max_chunk * out_bytes_per_read, "mappings"));
        }

        std::size_t device_base = 0;
        for (std::size_t e = 0; e < d; ++e) device_base += counts[e];

        ocl::CommandQueue queue(device);
        std::size_t chunk_index = 0;
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            // Swap the shard image in; the previous shard's last kernel
            // must have released the buffer (ordering-only — a faulted
            // kernel never touched it).
            std::vector<ocl::Event> image_reuse;
            if (!dw.kernels.empty()) {
                image_reuse.push_back(dw.kernels.back());
            }
            dw.resident_writes.push_back(queue.enqueue_write(
                dw.resident, shards_[s].image_bytes(), {},
                std::move(image_reuse)));
            tally.restage_bytes += shards_[s].image_bytes();
            if (s > 0) ++tally.restages;

            const KernelConfig kernel_config = shard_kernel(s);
            std::size_t base = device_base;
            std::size_t remaining = counts[d];
            bool first_chunk_of_shard = true;
            while (remaining > 0) {
                const std::size_t chunk = std::min(remaining, max_chunk);
                const std::size_t set = chunk_index % dw.sets;
                if (!first_chunk_of_shard) ++tally.hits;

                // Stage the chunk's reads; the buffer set is free again
                // once the kernel that last used it completed.
                std::vector<ocl::Event> write_reuse;
                if (chunk_index >= dw.sets) {
                    write_reuse.push_back(
                        dw.kernels[chunk_index - dw.sets]);
                }
                dw.writes.push_back(queue.enqueue_write(
                    dw.reads[set], chunk * n, {}, std::move(write_reuse)));

                ocl::KernelLaunch launch;
                launch.name = name_ + "::map";
                launch.n_items = chunk;
                launch.scratch_bytes_per_item = scratch;
                const ShardView& view = shards_[s];
                launch.body = [this, &batch, slots, unit_stages, &view,
                               kernel_config, s, base, reads,
                               delta](std::size_t i) -> std::uint64_t {
                    // Work items write disjoint slots: no
                    // synchronization. One scratch per pool thread:
                    // after the first read the kernel runs
                    // allocation-free on that thread.
                    const std::size_t unit = s * reads + base + i;
                    thread_local KernelScratch kernel_scratch;
                    return map_read_workitem(
                        *view.fm, *view.reference, *seeder_,
                        batch.reads[base + i], delta, kernel_config,
                        slots[unit], kernel_scratch, &unit_stages[unit]);
                };
                std::vector<ocl::Event> kernel_wait{dw.writes.back()};
                if (first_chunk_of_shard) {
                    kernel_wait.push_back(dw.resident_writes.back());
                    first_chunk_of_shard = false;
                }
                std::vector<ocl::Event> kernel_reuse;
                if (chunk_index >= dw.sets) {
                    kernel_reuse.push_back(
                        dw.reads_done[chunk_index - dw.sets]);
                }
                dw.kernels.push_back(queue.enqueue(std::move(launch),
                                                   std::move(kernel_wait),
                                                   std::move(kernel_reuse)));
                dw.reads_done.push_back(queue.enqueue_read(
                    dw.outputs[set], chunk * out_bytes_per_read,
                    {dw.kernels.back()}));
                dw.ranges.push_back({s, base, base + chunk});
                base += chunk;
                remaining -= chunk;
                ++chunk_index;
            }
        }
    }

    // Task-parallel completion: devices ran concurrently; the mapping
    // time is the slowest device's elapsed total — kernel execution
    // plus any staging stalls plus the final drain tail (the last
    // output transfer outliving the last kernel). Everything is
    // computed from the run's own events, so concurrent mappers sharing
    // a device (the serve pool) cannot skew each other's numbers.
    double slowest = 0.0;
    for (std::size_t d = 0; d < shares_.size(); ++d) {
        if (counts[d] == 0) continue;
        ocl::Device& device = *shares_[d].device;
        DeviceWork& dw = work[d];
        DeviceRun run;
        run.device_name = device.name();
        run.reads = counts[d];
        run.power_scale = config_.power_scale;

        for (std::size_t s = 0; s < dw.resident_writes.size(); ++s) {
            const ocl::LaunchStats& stats = dw.resident_writes[s].wait();
            run.bytes_staged += shards_[s].image_bytes();
            run.transfer_seconds += stats.seconds;
        }

        double exec_seconds = 0.0;
        double wait_seconds = 0.0;
        double last_kernel_end = 0.0;
        double last_drain_end = 0.0;
        for (std::size_t e = 0; e < dw.kernels.size(); ++e) {
            const Launch& range = dw.ranges[e];

            const ocl::LaunchStats& write_stats = dw.writes[e].wait();
            run.bytes_staged += (range.hi - range.lo) * n;
            run.transfer_seconds += write_stats.seconds;

            const ocl::LaunchStats& stats = dw.kernels[e].wait();
            exec_seconds += stats.seconds;
            wait_seconds += stats.queue_wait_seconds;
            last_kernel_end = std::max(last_kernel_end,
                                       stats.start_seconds + stats.seconds);
            tallies[d].busy_by_shard[range.shard] += stats.seconds;
            run.stats.items += stats.items;
            run.stats.total_ops += stats.total_ops;
            run.stats.scratch_bytes_per_item = stats.scratch_bytes_per_item;
            run.stats.utilization = stats.utilization;

            const ocl::LaunchStats& drain_stats = dw.reads_done[e].wait();
            run.bytes_drained += (range.hi - range.lo) * out_bytes_per_read;
            run.transfer_seconds += drain_stats.seconds;
            last_drain_end =
                std::max(last_drain_end,
                         drain_stats.start_seconds + drain_stats.seconds);

            obs::StageCounters launch_stage;
            for (std::size_t r = range.lo; r < range.hi; ++r) {
                launch_stage += unit_stages[range.shard * reads + r];
            }
            run.stage += launch_stage;
            if (auto* recorder = obs::trace()) {
                obs::record_stage_spans(
                    *recorder, run.device_name, /*track=*/0,
                    stats.start_seconds,
                    device.profile().dispatch_overhead_seconds,
                    stats.seconds, launch_stage);
            }
        }
        const double drain_tail =
            std::max(0.0, last_drain_end - last_kernel_end);
        run.stats.seconds = exec_seconds;
        run.stall_seconds = wait_seconds + drain_tail;
        slowest = std::max(slowest,
                           exec_seconds + wait_seconds + drain_tail);
        result.device_runs.push_back(std::move(run));
    }
    result.mapping_seconds = slowest;
    if (shards_.size() > 1) export_shard_metrics(tallies);
}

void HeterogeneousMapper::map_dynamic(const genomics::ReadBatch& batch,
                                      std::uint32_t delta,
                                      UnitMappings slots,
                                      UnitStages unit_stages,
                                      MapResult& result) {
    const std::size_t reads = batch.size();
    const std::size_t n = batch.read_length;
    const std::size_t total_units = shards_.size() * reads;
    const std::uint64_t scratch = kernel_scratch_bytes(*seeder_, n, delta);
    const std::uint64_t out_bytes_per_read =
        static_cast<std::uint64_t>(config_.kernel.max_locations_per_read) *
        8;

    // Fleet = shares whose device can run the kernel at all; the rest
    // are dropped up front (the scheduler would only quarantine them).
    std::vector<ocl::Device*> devices;
    std::vector<double> warm_start;
    for (const DeviceShare& s : shares_) {
        if (scratch > s.device->profile().private_memory_per_unit) {
            util::logf(util::LogLevel::Info,
                       "%s: dropping %s (needs %llu B scratch/item)",
                       name_.c_str(), s.device->name().c_str(),
                       static_cast<unsigned long long>(scratch));
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

    // Resident images plus the chunk ceiling: any chunk must fit the
    // buffer budget of EVERY device, because a failed chunk may be
    // requeued anywhere in the fleet (the paper's multi-run fallback
    // logic, applied fleet-wide).
    std::vector<ocl::Buffer> resident;
    resident.reserve(devices.size());
    std::vector<std::size_t> buffer_sets(devices.size(), 1);
    std::uint64_t fleet_chunk_cap = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t d = 0; d < devices.size(); ++d) {
        resident.push_back(context.allocate(*devices[d], max_image_bytes(),
                                            "index+reference"));
        const ChunkCeiling ceiling =
            chunk_ceiling(*devices[d], n, out_bytes_per_read);
        buffer_sets[d] = ceiling.buffer_sets;
        fleet_chunk_cap = std::min(fleet_chunk_cap, ceiling.reads);
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

    // Per-device read/output buffers sized to the largest planned chunk
    // and reused across chunk launches (one set per buffer_sets entry:
    // double-buffered devices alternate two).
    std::size_t largest_chunk = 1;
    for (const ChunkRecord& c : scheduler.plan(total_units)) {
        largest_chunk = std::max(largest_chunk, c.count);
    }

    // Per-device staging state. The scheduler runs one worker per
    // device and always hands device d's chunks to worker d, so each
    // entry is touched by exactly one thread during run().
    // `current_shard` is the resident-shard affinity: a chunk segment
    // whose shard is already resident skips the image restage entirely.
    struct DeviceStage {
        std::vector<ocl::Buffer> reads;   ///< one per buffer set
        std::vector<ocl::Buffer> outputs; ///< one per buffer set
        ocl::Event resident_write;
        bool resident_pending = false; ///< next kernel must wait on it
        std::size_t current_shard = SIZE_MAX;
        std::vector<ocl::Event> last_kernel; ///< per set
        ocl::Event newest_kernel;            ///< tail of the kernel chain
        std::vector<ocl::Event> last_drain;  ///< per set
        std::size_t launches = 0;
        std::uint64_t bytes_staged = 0;
        std::uint64_t bytes_drained = 0;
        double transfer_seconds = 0.0;
        double last_kernel_end = 0.0;
        double last_drain_end = 0.0;
    };
    std::vector<DeviceStage> stages(devices.size());
    std::vector<ShardTally> tallies(devices.size());
    std::map<ocl::Device*, std::size_t> device_index;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        DeviceStage& st = stages[d];
        st.last_kernel.resize(buffer_sets[d]);
        st.last_drain.resize(buffer_sets[d]);
        for (std::size_t s = 0; s < buffer_sets[d]; ++s) {
            st.reads.push_back(context.allocate(
                *devices[d], largest_chunk * n, "reads"));
            st.outputs.push_back(context.allocate(
                *devices[d], largest_chunk * out_bytes_per_read,
                "mappings"));
        }
        tallies[d].busy_by_shard.resize(shards_.size(), 0.0);
        device_index[devices[d]] = d;
    }

    // One persistent in-order queue per device: chunk launches on a
    // device chain on each other, and trace spans land on one track.
    std::map<ocl::Device*, ocl::CommandQueue> queues;
    for (ocl::Device* device : devices) {
        queues.try_emplace(device, *device);
    }

    // Swaps shard s into device d's resident buffer, with an
    // ordering-only dependency on the newest kernel (the in-order chain
    // makes it the last possible user of the old image).
    const auto stage_shard = [&](std::size_t d, std::size_t s) {
        DeviceStage& st = stages[d];
        std::vector<ocl::Event> image_reuse;
        if (st.newest_kernel.valid()) {
            image_reuse.push_back(st.newest_kernel);
        }
        st.resident_write = queues.at(devices[d]).enqueue_write(
            resident[d], shards_[s].image_bytes(), {},
            std::move(image_reuse));
        st.resident_pending = true;
        tallies[d].restage_bytes += shards_[s].image_bytes();
        if (st.current_shard != SIZE_MAX) ++tallies[d].restages;
        st.current_shard = s;
    };
    // One shard never changes, so every device stages it up front —
    // even a device the scheduler then hands no chunk. With K shards a
    // device stages each shard at its first chunk on that shard.
    if (shards_.size() == 1) {
        for (std::size_t d = 0; d < devices.size(); ++d) stage_shard(d, 0);
    }

    ScheduleStats schedule = scheduler.run(
        total_units,
        [&](ocl::Device& device, std::size_t begin, std::size_t count) {
            const std::size_t d = device_index.at(&device);
            DeviceStage& st = stages[d];
            ShardTally& tally = tallies[d];
            ocl::CommandQueue& queue = queues.at(&device);

            // A chunk may straddle shard boundaries in the flattened
            // unit space; run it as one segment per shard, restaging
            // the resident image only on shard switches.
            ocl::LaunchStats agg;
            bool first_segment = true;
            std::size_t flat = begin;
            const std::size_t end = begin + count;
            while (flat < end) {
                const std::size_t s = flat / reads;
                const std::size_t seg_end = std::min(end, (s + 1) * reads);
                const std::size_t seg_count = seg_end - flat;
                const std::size_t read_base = flat - s * reads;

                if (st.current_shard != s) {
                    stage_shard(d, s);
                } else {
                    ++tally.hits;
                }

                // Stage this segment's reads; the set is free once the
                // kernel that last used it completed (ordering-only
                // reuse dep — a faulted kernel must not cascade into
                // later stages).
                const std::size_t set = st.launches % st.last_kernel.size();
                std::vector<ocl::Event> write_reuse;
                if (st.last_kernel[set].valid()) {
                    write_reuse.push_back(st.last_kernel[set]);
                }
                ocl::Event write = queue.enqueue_write(
                    st.reads[set], seg_count * n, {}, std::move(write_reuse));

                ocl::KernelLaunch launch;
                launch.name = name_ + "::map-chunk";
                launch.n_items = seg_count;
                launch.scratch_bytes_per_item = scratch;
                const ShardView& view = shards_[s];
                const KernelConfig kernel_config = shard_kernel(s);
                launch.body = [this, &batch, slots, unit_stages, &view,
                               kernel_config, flat, read_base,
                               delta](std::size_t i) -> std::uint64_t {
                    // Work items own disjoint unit slots, and a retried
                    // chunk rewrites exactly the same slots
                    // (map_read_workitem clears its output and stage
                    // totals first).
                    const std::size_t unit = flat + i;
                    unit_stages[unit] = StageTotals{};
                    thread_local KernelScratch kernel_scratch;
                    return map_read_workitem(
                        *view.fm, *view.reference, *seeder_,
                        batch.reads[read_base + i], delta, kernel_config,
                        slots[unit], kernel_scratch, &unit_stages[unit]);
                };
                std::vector<ocl::Event> kernel_wait{write};
                if (st.resident_pending) {
                    kernel_wait.push_back(st.resident_write);
                    st.resident_pending = false;
                }
                std::vector<ocl::Event> kernel_reuse;
                if (st.last_drain[set].valid()) {
                    kernel_reuse.push_back(st.last_drain[set]);
                }
                ocl::Event kernel = queue.enqueue(std::move(launch),
                                                  std::move(kernel_wait),
                                                  std::move(kernel_reuse));
                st.newest_kernel = kernel;

                // The write cannot fault; account it before the kernel
                // wait so a retried chunk still shows the staging it
                // burned.
                const ocl::LaunchStats& write_stats = write.wait();
                st.bytes_staged += seg_count * n;
                st.transfer_seconds += write_stats.seconds;
                ++st.launches;

                const ocl::LaunchStats stats = kernel.wait(); // throws
                st.last_kernel[set] = kernel;
                st.last_kernel_end = std::max(
                    st.last_kernel_end, stats.start_seconds + stats.seconds);
                tally.busy_by_shard[s] += stats.seconds;

                ocl::Event drain = queue.enqueue_read(
                    st.outputs[set], seg_count * out_bytes_per_read,
                    {kernel});
                const ocl::LaunchStats& drain_stats = drain.wait();
                st.last_drain[set] = drain;
                st.bytes_drained += seg_count * out_bytes_per_read;
                st.transfer_seconds += drain_stats.seconds;
                st.last_drain_end =
                    std::max(st.last_drain_end,
                             drain_stats.start_seconds + drain_stats.seconds);

                if (auto* recorder = obs::trace()) {
                    obs::StageCounters chunk_stage;
                    for (std::size_t u = flat; u < seg_end; ++u) {
                        chunk_stage += unit_stages[u];
                    }
                    obs::record_stage_spans(
                        *recorder, device.name(), /*track=*/0,
                        stats.start_seconds,
                        device.profile().dispatch_overhead_seconds,
                        stats.seconds, chunk_stage);
                }

                if (first_segment) {
                    agg = stats;
                    first_segment = false;
                } else {
                    agg.items += stats.items;
                    agg.total_ops += stats.total_ops;
                    agg.seconds += stats.seconds;
                    agg.queue_wait_seconds += stats.queue_wait_seconds;
                }
                flat = seg_end;
            }
            return agg;
        });

    for (std::size_t d = 0; d < devices.size(); ++d) {
        DeviceStage& st = stages[d];
        DeviceScheduleStats& pd = schedule.per_device[d];
        if (st.resident_write.valid()) {
            // Image bytes are tallied per restage; the event wait here
            // only settles the last pending transfer.
            const ocl::LaunchStats& stats = st.resident_write.wait();
            st.transfer_seconds += stats.seconds;
        }
        st.bytes_staged += tallies[d].restage_bytes;
        // The last output drain may outlive the last kernel; that tail
        // extends the device's elapsed time (and the makespan) like any
        // other stall.
        pd.stall_seconds +=
            std::max(0.0, st.last_drain_end - st.last_kernel_end);

        DeviceRun run;
        run.device_name = pd.device_name;
        run.reads = pd.items;
        run.power_scale = config_.power_scale;
        run.stats = pd.stats;
        run.bytes_staged = st.bytes_staged;
        run.bytes_drained = st.bytes_drained;
        run.transfer_seconds = st.transfer_seconds;
        run.stall_seconds = pd.stall_seconds;
        for (const ChunkRecord& c : schedule.records) {
            if (c.device != d) continue;
            for (std::size_t u = c.begin; u < c.begin + c.count; ++u) {
                run.stage += unit_stages[u];
            }
        }
        result.device_runs.push_back(std::move(run));
    }
    result.mapping_seconds = schedule.makespan_seconds();
    result.schedule = std::move(schedule);
    if (shards_.size() > 1) export_shard_metrics(tallies);
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
