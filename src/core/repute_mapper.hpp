#pragma once
// REPUTE's host program: multi-device task-parallel mapping.
//
// The host (paper §III) splits the read set across OpenCL devices per a
// user-specified distribution, allocates the static buffers each device
// needs (index + reference, read chunk, first-n output), launches the
// map kernel on every device's queue simultaneously, and merges results.
// When a chunk's output buffer would violate a device's allocation
// ceiling, the chunk is processed in several smaller kernel runs — the
// exact fallback the paper describes ("we have to limit the number of
// mappings per read or run the kernel multiple times with smaller read
// sets").
//
// One executor serves every index shape. The mapper runs over a plan of
// K shard views; a monolithic index is the one-shard plan {text offset
// 0, owned window [0, fm.size())}, and a sharded index (.rixm,
// sharded_mapper.hpp) supplies K > 1. With one shard the kernel writes
// straight into the result: no per-shard slots, no coordinate shift, no
// merge and no shard.* metrics. With K shards every read is mapped
// against every shard and the per-shard lists are merged back into the
// monolithic result.
//
// Every device runs one launch chain, a lane private to the .cpp: it
// holds one resident image buffer (one shard at a time, restaged only
// on a shard switch) and one or two read/output buffer sets, and runs
// each launch as a stage -> kernel -> drain event triple, double-
// buffered over modeled transfers. Two schedules decide what each lane
// launches:
//   - StaticSplit: one contiguous read slice per device, walked
//     shard-major and settled once every device has been enqueued;
//   - Dynamic: (shard, read) flattened into one K x reads unit space for
//     the work-stealing ChunkScheduler; its runner launches and settles
//     each chunk's per-shard segments, so a fault reaches the retry
//     path, and each lane keeps its current shard resident across
//     chunks.
//
// The same host logic with the heuristic seeder is CORAL (the OpenCL
// predecessor REPUTE is compared against), so the class is parameterized
// by the Seeder and both tools are thin factories over it.

#include <memory>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/mapping.hpp"
#include "filter/seed.hpp"
#include "genomics/sequence.hpp"
#include "index/fm_index.hpp"
#include "ocl/context.hpp"
#include "ocl/queue.hpp"

namespace repute::core {

/// A device plus the fraction of the read set it should map.
struct DeviceShare {
    ocl::Device* device = nullptr;
    double fraction = 1.0;
};

enum class ScheduleMode {
    /// Paper-fidelity (§III-B): one contiguous slice per device,
    /// committed up front. The default — benchmark numbers meant to be
    /// compared with the paper use this path.
    StaticSplit,
    /// Dynamic chunked work-stealing with fault recovery (scheduler.hpp):
    /// the shares become a warm start, idle devices steal queued chunks,
    /// failed chunks are retried on the surviving fleet.
    Dynamic,
};

struct HeterogeneousMapperConfig {
    KernelConfig kernel;
    ScheduleMode schedule = ScheduleMode::StaticSplit;
    /// Chunking/retry knobs for ScheduleMode::Dynamic.
    SchedulerConfig scheduler;
    /// Stage chunk k+1's buffers while chunk k executes, through a
    /// second buffer set chained via event wait-lists. Only takes
    /// effect on devices whose TransferSpec is modeled (staging is free
    /// otherwise, and one buffer set keeps chunk sizing unchanged);
    /// output is byte-identical either way.
    bool double_buffer = true;
};

/// Non-owning view of one shard as the mapper consumes it. Local
/// coordinates index the shard's own text (owned slice + overhangs);
/// `text_offset` places local 0 in the concatenated reference.
struct ShardView {
    const genomics::Reference* reference = nullptr;
    const index::FmIndex* fm = nullptr;
    std::uint32_t text_offset = 0;
    std::uint32_t own_lo = 0; ///< local start of the owned range
    std::uint32_t own_hi = 0; ///< local end (exclusive)

    /// Global start of the owned range.
    std::uint32_t base() const noexcept { return text_offset + own_lo; }
    /// Device image bytes for this shard (packed text + index).
    std::uint64_t image_bytes() const noexcept {
        return reference->sequence().memory_bytes() + fm->memory_bytes();
    }
};

/// The one-shard plan of a monolithic index: the whole text, all owned.
ShardView monolithic_view(const genomics::Reference& reference,
                          const index::FmIndex& fm);

class HeterogeneousMapper final : public Mapper {
public:
    /// `shards` must be non-empty, ordered by base, tile the reference
    /// with their owned ranges, and outlive the mapper (they are
    /// views). Shares are normalized; zero-fraction shares are dropped.
    /// Throws std::invalid_argument on a bad plan or when no usable
    /// share remains.
    HeterogeneousMapper(std::string display_name,
                        std::vector<ShardView> shards,
                        std::unique_ptr<filter::Seeder> seeder,
                        HeterogeneousMapperConfig config,
                        std::vector<DeviceShare> shares);

    /// Maps the batch against every shard and merges. Throws
    /// std::invalid_argument when the shard overhangs are too small for
    /// this batch (needs overlap >= read_length + delta) — remapping
    /// with a bigger --overlap is the fix, not silent wrong output.
    MapResult map(const genomics::ReadBatch& batch,
                  std::uint32_t delta) override;

    std::string_view name() const noexcept override { return name_; }

    const filter::Seeder& seeder() const noexcept { return *seeder_; }
    const HeterogeneousMapperConfig& config() const noexcept {
        return config_;
    }

    /// Number of reads of `total` assigned to each share, in order.
    std::vector<std::size_t> split_workload(std::size_t total) const;

    /// Largest per-shard device image — what the resident buffer holds
    /// (the per-device peak index residency).
    std::uint64_t max_image_bytes() const noexcept;

private:
    struct Job;  ///< one map() call: batch, delta, per-unit outputs
    class Lane;  ///< one device's stage -> kernel -> drain launch chain

    void map_static(const Job& job, MapResult& result);
    void map_dynamic(const Job& job, MapResult& result);
    void validate_overhangs(const genomics::ReadBatch& batch,
                            std::uint32_t delta) const;

    std::string name_;
    std::vector<ShardView> shards_;
    std::unique_ptr<filter::Seeder> seeder_;
    HeterogeneousMapperConfig config_;
    std::vector<DeviceShare> shares_;
};

/// REPUTE with the paper's memory-optimized DP seeder over a monolithic
/// index. The minimum k-mer length (and every other kernel/host knob)
/// lives in exactly one place: `config.kernel.s_min` — the seeder is
/// built from it.
std::unique_ptr<HeterogeneousMapper> make_repute(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

/// CORAL: the same OpenCL host flow with the serial variable-length
/// k-mer heuristic and the streaming verification flow
/// (`config.kernel.collapse_candidates` is forced off).
std::unique_ptr<HeterogeneousMapper> make_coral(
    const genomics::Reference& reference, const index::FmIndex& fm,
    std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

/// Workload shares proportional to each device's occupancy-adjusted
/// throughput for a kernel with the given per-item scratch requirement —
/// the "judicious distribution" the paper calls for (§IV, Fig. 3).
/// Devices that cannot run the kernel at all (scratch over their private
/// memory) receive a zero share.
std::vector<DeviceShare> balanced_shares(
    const std::vector<ocl::Device*>& devices,
    std::uint64_t scratch_bytes_per_item);

} // namespace repute::core
