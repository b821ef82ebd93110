#pragma once
// Scatter-gather mapping over a sharded reference index.
//
// A monolithic index must fit every device's quarter-of-RAM allocation
// ceiling (ocl::DeviceProfile::max_single_allocation — the paper's
// OpenCL 1.2 embedded constraint), which caps the mappable reference
// size per device. Sharding lifts that ceiling: the reference is split
// into K per-shard FM-indexes (index/shard_plan.hpp, index/rixm.hpp)
// and HeterogeneousMapper (repute_mapper.hpp) maps every read batch
// against every shard, with (read-chunk x shard) as the schedulable
// work unit. Only the *current shard's* image is resident per device,
// so peak device residency is one shard, not the whole reference. This
// header holds what is specific to K > 1: views over an opened .rixm,
// the per-read merge, and the factories over shard views.
//
// Output identity: each shard indexes its slice plus an overlap
// overhang into its neighbours, and its kernel runs with the ownership
// window [own_lo, own_hi) (KernelConfig::report_lo/report_hi), so a
// shard's per-read list is exactly the monolithic list restricted to
// its owned positions — candidates are filtered before verification
// and before first-n cap counting. merge_sharded_read() then rebuilds
// the monolithic generation order (forward accepts across shards in
// base order, then reverse), reapplies the cap at the same point, and
// sorts — byte-identical SAM downstream for the collapse-on (REPUTE)
// flow. The CORAL streaming flow re-verifies duplicate windows, and
// those duplicates consume monolithic cap slots before dedup; a
// cap-bound CORAL read can therefore differ — documented in DESIGN.md
// §5g.
//
// Residency is observable through the shard.* metrics: a chunk whose
// shard is already resident skips the restage (shard.residency_hits),
// others pay it (shard.restages / shard.restage_bytes).

#include <memory>
#include <span>
#include <vector>

#include "core/mapping.hpp"
#include "core/repute_mapper.hpp"
#include "index/rixm.hpp"

namespace repute::core {

/// Views over an opened .rixm sharded index (which must outlive them).
std::vector<ShardView> shard_views_of(const index::ShardedIndex& index);

/// Deterministic per-read merge of per-shard mapping lists into the
/// monolithic result. Each entry of `per_shard` is one shard's kernel
/// output for the read — owned positions only, already shifted to
/// global coordinates, sorted by (position, strand) and deduplicated —
/// in shard base order. Rebuilds generation order (forward accepts
/// across shards, then reverse), truncates at `max_locations` exactly
/// where the monolithic kernel would, then sorts and deduplicates.
void merge_sharded_read(
    std::span<const std::span<const ReadMapping>> per_shard,
    std::uint32_t max_locations, std::vector<ReadMapping>& out);

/// REPUTE / CORAL factories over shard views — make_repute / make_coral
/// generalized to any plan (same seeders, same kernel-config rules).
/// A plan of more than one shard is named "<tool>-sharded".
std::unique_ptr<HeterogeneousMapper> make_sharded_repute(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});
std::unique_ptr<HeterogeneousMapper> make_sharded_coral(
    std::vector<ShardView> shards, std::vector<DeviceShare> shares,
    HeterogeneousMapperConfig config = {});

} // namespace repute::core
