#include "core/tuner.hpp"

#include <algorithm>
#include <stdexcept>

#include "filter/memopt_seeder.hpp"
#include "ocl/queue.hpp"

namespace repute::core {

TuneResult tune_shares(const genomics::Reference& reference,
                       const index::FmIndex& fm,
                       const genomics::ReadBatch& batch,
                       std::uint32_t delta, std::uint32_t s_min,
                       std::vector<ocl::Device*> devices,
                       const TuneConfig& config) {
    if (batch.empty()) {
        throw std::invalid_argument("tune_shares: empty batch");
    }
    std::erase(devices, nullptr);
    if (devices.empty()) {
        throw std::invalid_argument("tune_shares: no devices");
    }

    const filter::MemoryOptimizedSeeder seeder(s_min);
    KernelConfig kernel;
    kernel.s_min = s_min;
    const std::uint64_t scratch =
        kernel_scratch_bytes(seeder, batch.read_length, delta);

    // Probe slice: evenly strided so repeat-heavy reads are sampled.
    // Every device probes the same slice, so when the batch is smaller
    // than probe_reads x devices the probe is clamped to the per-device
    // share — probing more would model a fleet that maps the batch
    // several times over and skew the finish-together prediction.
    std::size_t probe = std::min(config.probe_reads, batch.size());
    if (probe * devices.size() > batch.size()) {
        probe = std::max<std::size_t>(1, batch.size() / devices.size());
    }
    const std::size_t stride = std::max<std::size_t>(
        1, batch.size() / probe);

    TuneResult result;
    result.reads_per_second.assign(devices.size(), 0.0);

    for (std::size_t d = 0; d < devices.size(); ++d) {
        ocl::Device& device = *devices[d];
        if (scratch > device.profile().private_memory_per_unit) {
            continue; // cannot run the kernel at all
        }
        ocl::CommandQueue queue(device);
        ocl::KernelLaunch launch;
        launch.name = "tune-probe";
        launch.n_items = probe;
        launch.scratch_bytes_per_item = scratch;
        // Probe work items recompute mappings into throwaway buffers;
        // only the modeled time matters.
        launch.body = [&, stride](std::size_t i) -> std::uint64_t {
            thread_local std::vector<ReadMapping> out;
            thread_local KernelScratch kernel_scratch;
            return map_read_workitem(fm, reference, seeder,
                                     batch.reads[(i * stride) %
                                                 batch.size()],
                                     delta, kernel, out, kernel_scratch);
        };
        const auto stats = queue.run(std::move(launch));
        // Fold the modeled host<->device transfer cost of a probe-sized
        // chunk into the device's effective rate: a device behind a slow
        // bus maps fewer reads per second than its kernel time suggests.
        // Double-buffered staging hides transfers behind compute
        // (steady-state chunk cost = max of the three), serialized
        // staging pays their sum.
        const ocl::TransferSpec& spec = device.profile().transfer;
        const double write_seconds =
            spec.seconds_for(static_cast<std::uint64_t>(probe) *
                             batch.read_length);
        const double read_seconds = spec.seconds_for(
            static_cast<std::uint64_t>(probe) *
            kernel.max_locations_per_read * 8);
        const double chunk_seconds =
            config.double_buffer
                ? std::max({stats.seconds, write_seconds, read_seconds})
                : stats.seconds + write_seconds + read_seconds;
        if (chunk_seconds > 0.0) {
            result.reads_per_second[d] =
                static_cast<double>(probe) / chunk_seconds;
        }
    }

    const double fastest = *std::max_element(
        result.reads_per_second.begin(), result.reads_per_second.end());
    if (fastest <= 0.0) {
        throw std::invalid_argument(
            "tune_shares: no device can run this kernel configuration");
    }

    double total_rate = 0.0;
    result.shares.reserve(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
        double rate = result.reads_per_second[d];
        if (rate < config.min_useful_fraction * fastest) rate = 0.0;
        result.shares.push_back({devices[d], rate});
        total_rate += rate;
    }
    // Finish-together prediction: every device processes its share at
    // its measured rate, so T = N / sum(rates).
    result.predicted_seconds =
        static_cast<double>(batch.size()) / total_rate;
    return result;
}

} // namespace repute::core
