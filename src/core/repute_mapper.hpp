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
// monolithic result. Two schedules drive the launches:
//   - StaticSplit: one contiguous read slice per device; the device
//     walks the shards in order, restaging its one resident image
//     buffer between shards, double-buffering read chunks within one;
//   - Dynamic: (shard, read) flattened into one K x reads unit space for
//     the work-stealing ChunkScheduler, each device keeping its current
//     shard resident across chunks.
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
    /// Wall power the mapper draws relative to device calibration.
    double power_scale = 1.0;
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
    double power_scale() const noexcept override {
        return config_.power_scale;
    }

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
    /// Per-unit kernel outputs and stage totals, shard-major:
    /// unit = shard * reads + read.
    using UnitMappings = std::span<std::vector<ReadMapping>>;
    using UnitStages = std::span<StageTotals>;

    /// Largest chunk of reads whose buffers fit one device.
    struct ChunkCeiling {
        std::uint64_t reads;
        std::size_t buffer_sets;
    };
    ChunkCeiling chunk_ceiling(const ocl::Device& device,
                               std::uint64_t read_bytes,
                               std::uint64_t out_bytes_per_read) const;

    void map_static(const genomics::ReadBatch& batch, std::uint32_t delta,
                    UnitMappings slots, UnitStages unit_stages,
                    MapResult& result);
    void map_dynamic(const genomics::ReadBatch& batch, std::uint32_t delta,
                     UnitMappings slots, UnitStages unit_stages,
                     MapResult& result);
    void validate_overhangs(const genomics::ReadBatch& batch,
                            std::uint32_t delta) const;
    KernelConfig shard_kernel(std::size_t shard) const;

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
