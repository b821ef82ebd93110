#pragma once
// Mapping result types and the Mapper interface every tool in the
// comparison implements (REPUTE, CORAL and the five baseline mappers).
//
// A mapping is the paper's output tuple: reference position, edit
// distance and strand (§IV: "REPUTE gives the mapping positions, edit
// distance and strand"). first-n semantics: each read stores at most
// max_locations_per_read mappings, the cap imposed by static OpenCL
// output buffers.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "genomics/sequence.hpp"
#include "obs/stage_counters.hpp"
#include "ocl/device.hpp"

namespace repute::core {

struct ReadMapping {
    std::uint32_t position = 0; ///< 0-based read start on forward strand
    std::uint16_t edit_distance = 0;
    genomics::Strand strand = genomics::Strand::Forward;

    bool operator==(const ReadMapping&) const noexcept = default;
};

struct StageTotals; // kernels.hpp

/// Per-device execution record attached to a map run.
struct DeviceRun {
    std::string device_name;
    std::size_t reads = 0;
    ocl::LaunchStats stats;
    double power_scale = 1.0;
    /// Per-stage op breakdown (filtration / locate / verify) — filled by
    /// mappers that instrument their kernels (REPUTE/CORAL do).
    obs::StageCounters stage;
    /// Host-to-device bytes staged for this run (resident image + read
    /// chunks) and device-to-host bytes drained (output chunks). Counted
    /// even when the device's TransferSpec is unmodeled.
    std::uint64_t bytes_staged = 0;
    std::uint64_t bytes_drained = 0;
    /// Modeled DMA seconds (h2d + d2h) and the compute-timeline stalls
    /// transfers forced (kernel queue waits plus the final drain tail).
    /// Zero when transfers are unmodeled.
    double transfer_seconds = 0.0;
    double stall_seconds = 0.0;
};

struct MapResult {
    /// per_read[i] holds the (<= cap) mappings of read i, sorted by
    /// (position, strand).
    std::vector<std::vector<ReadMapping>> per_read;
    /// End-to-end modeled mapping time: devices run task-parallel, so
    /// this is the slowest device's total plus merge overhead.
    double mapping_seconds = 0.0;
    std::vector<DeviceRun> device_runs;
    /// Chunk-level accounting when the run used the dynamic scheduler
    /// (ScheduleMode::Dynamic); nullopt for static splits.
    std::optional<ScheduleStats> schedule;

    /// True when the run was dispatched by the dynamic work-stealing
    /// scheduler (and `schedule` holds its chunk-level accounting).
    bool used_dynamic_schedule() const noexcept {
        return schedule.has_value();
    }

    std::uint64_t total_mappings() const noexcept;
    std::size_t reads_mapped() const noexcept; ///< reads with >= 1 mapping

    /// Total bytes staged/drained across devices this run.
    std::uint64_t bytes_staged() const noexcept;
    std::uint64_t bytes_drained() const noexcept;
    /// Fraction of modeled transfer time hidden behind kernel execution:
    /// 1 - stalls/transfer, clamped to [0, 1]. A fully serialized
    /// stage+compute+drain loop scores near 0, perfect double buffering
    /// scores 1. Returns 1 when the run had no modeled transfer time.
    double transfer_overlap_ratio() const noexcept;
};

class Mapper {
public:
    virtual ~Mapper() = default;

    /// Maps every read of `batch` at edit-distance budget `delta`.
    virtual MapResult map(const genomics::ReadBatch& batch,
                          std::uint32_t delta) = 0;

    virtual std::string_view name() const noexcept = 0;

    /// Fraction of device active power this mapper draws (see
    /// energy::DeviceUsage::power_scale).
    virtual double power_scale() const noexcept { return 1.0; }
};

} // namespace repute::core
