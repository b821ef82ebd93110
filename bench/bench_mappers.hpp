#pragma once
// Construction of the paper's mapper line-up against a workload, shared
// by the table benches.

#include <functional>
#include <memory>
#include <vector>

#include "baselines/bwamem_like.hpp"
#include "baselines/gem_like.hpp"
#include "baselines/hobbes3_like.hpp"
#include "baselines/razers3_like.hpp"
#include "baselines/yara_like.hpp"
#include "bench_common.hpp"

namespace repute::bench {

/// The paper's per-configuration choice of REPUTE/CORAL minimum k-mer
/// length ("the best performances ... taking into consideration the
/// k-mer lengths", §IV): a few bases below the feasibility ceiling
/// n/(delta+1), clamped to [10, 22] (Fig. 4 sweet-spot region).
inline std::uint32_t best_s_min(std::size_t n, std::uint32_t delta) {
    const auto ceiling = static_cast<std::uint32_t>(n / (delta + 1));
    const std::uint32_t preferred = ceiling > 2 ? ceiling - 2 : 1;
    return std::clamp<std::uint32_t>(preferred, 10, 22);
}

/// Named factory: builds a fresh mapper for one (n, delta) cell.
struct MapperSpec {
    std::string name;
    std::function<std::unique_ptr<core::Mapper>(std::size_t n,
                                                std::uint32_t delta)>
        make;
};

/// Hash-mapper q-gram length scaled so that the random hit density per
/// q-gram on the bench genome matches what the tool would see on chr21
/// (46.7 Mbp): 4^q ~ genome / target_hits.
std::uint32_t scaled_q(std::size_t genome_length, double target_hits);

/// The paper's gold standard: RazerS3 with 100 locations/read, q scaled
/// to the bench genome.
std::unique_ptr<baselines::RazerS3Like> make_gold_standard(
    const Workload& w, ocl::Device& device);

/// The five baseline tools, configured as in §III-A (RazerS3 capped at
/// 100 locations; Hobbes3 at 1000; Yara and BWA-MEM report all).
std::vector<MapperSpec> baseline_specs(const Workload& w,
                                       ocl::Device& cpu);

/// REPUTE / CORAL on the given device shares, capped at 1000 locations.
/// `toggles` applies the --no-coalesce escape hatch to every kernel the
/// spec builds.
MapperSpec repute_spec(const Workload& w,
                       std::vector<core::DeviceShare> shares,
                       const std::string& name,
                       FunnelToggles toggles = {});
MapperSpec coral_spec(const Workload& w,
                      std::vector<core::DeviceShare> shares,
                      const std::string& name,
                      FunnelToggles toggles = {});

} // namespace repute::bench
