#include "baselines/single_device_mapper.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace repute::baselines {

core::MapResult SingleDeviceMapper::map(const genomics::ReadBatch& batch,
                                        std::uint32_t delta) {
    core::MapResult result;
    result.per_read.resize(batch.size());
    if (batch.empty()) return result;

    prepare(batch, delta);

    const ocl::LaunchStats stats = device_->execute(
        batch.size(),
        [this, &batch, &result, delta](std::size_t i) -> std::uint64_t {
            auto& out = result.per_read[i];
            out.clear();
            const std::uint64_t ops = map_read(batch.reads[i], delta, out);
            std::sort(out.begin(), out.end(),
                      [](const core::ReadMapping& a,
                         const core::ReadMapping& b) {
                          return a.position != b.position
                                     ? a.position < b.position
                                     : a.strand < b.strand;
                      });
            // Streaming verifiers can accept one window through several
            // seeds; merge duplicates in the host-side output pass.
            out.erase(
                std::unique(out.begin(), out.end(),
                            [](const core::ReadMapping& a,
                               const core::ReadMapping& b) {
                                return a.position == b.position &&
                                       a.strand == b.strand;
                            }),
                out.end());
            return ops;
        },
        scratch_bytes(batch.read_length, delta));

    if (auto* recorder = obs::trace()) {
        // Baselines dispatch straight to the device (no queue); record
        // the whole launch so cross-tool traces stay comparable.
        obs::TraceSpan span;
        span.name = name_ + "::map";
        span.device = device_->name();
        span.start_seconds = stats.start_seconds;
        span.duration_seconds = stats.seconds;
        recorder->record(std::move(span));
    }

    core::DeviceRun run;
    run.device_name = device_->name();
    run.stats = stats;
    run.power_scale = power_scale_;
    result.device_runs.push_back(std::move(run));
    result.mapping_seconds = stats.seconds;
    return result;
}

} // namespace repute::baselines
