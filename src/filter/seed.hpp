#pragma once
// Seed-selection (filtration) interface.
//
// Pigeonhole principle (paper §II-B): a read with at most delta errors,
// partitioned into delta+1 contiguous k-mers, has at least one k-mer that
// occurs exactly in the reference at every true mapping location. A
// Seeder chooses that partition; the quality metric is the total number
// of candidate locations its k-mers produce, since every candidate must
// be verified by the (expensive) alignment kernel.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "filter/frequency_scanner.hpp"
#include "index/fm_index.hpp"

namespace repute::filter {

/// One k-mer of the partition with its FM-index match range.
struct Seed {
    std::uint16_t start = 0;  ///< offset in the read
    std::uint16_t length = 0;
    index::FmIndex::Range range; ///< suffix rows matching the k-mer

    std::uint32_t candidate_count() const noexcept { return range.count(); }
};

/// Result of filtration for one read (one strand). The inherited
/// ScanWork counters, dp_cells and scratch_bytes are the work
/// accounting consumed by the device performance model.
struct SeedPlan : ScanWork {
    std::vector<Seed> seeds;          ///< exactly delta+1 entries
    std::uint64_t total_candidates = 0;

    std::uint64_t dp_cells = 0;    ///< DP cells touched (0 for heuristics)

    /// Peak bytes of per-read kernel scratch the strategy needs — the
    /// quantity the paper's memory optimization reduces (private-memory
    /// pressure limits GPU occupancy, Fig. 3/4 discussion).
    std::uint64_t scratch_bytes = 0;

    /// Clears accounting and seeds while keeping the seeds capacity —
    /// called at the top of every select() so plans can be recycled.
    void reset() noexcept {
        seeds.clear();
        total_candidates = 0;
        static_cast<ScanWork&>(*this) = {};
        dp_cells = 0;
        scratch_bytes = 0;
    }
};

/// Reusable working buffers for select(). All seeders size these with
/// assign()/resize() at entry, so a warm scratch (capacity already at the
/// read-parameter bound) makes filtration allocation-free — the host-side
/// analogue of the kernels' statically budgeted private memory.
struct SeedScratch {
    std::vector<std::uint32_t> row_a;      ///< DP row (prev), or all DP rows
    std::vector<std::uint32_t> row_b;      ///< DP row (curr)
    std::vector<std::uint32_t> freqs;      ///< suffix-frequency scan output
    std::vector<std::uint32_t> freq_table; ///< OSS full frequency table
    std::vector<std::uint16_t> dividers;   ///< DP backtrack pointers
    std::vector<std::uint16_t> boundaries; ///< chosen seed starts
};

/// Strategy interface. Implementations must be stateless w.r.t. reads
/// (safe to share across threads; scratch carries all mutable state).
class Seeder {
public:
    virtual ~Seeder() = default;

    /// Partitions `read` into `delta + 1` seeds. `read` holds 2-bit
    /// codes. Resets `plan`, then fills it in place using `scratch` for
    /// every working buffer. Throws std::invalid_argument when the read
    /// cannot host delta+1 seeds of the configured minimum length.
    virtual void select(const index::FmIndex& fm,
                        std::span<const std::uint8_t> read,
                        std::uint32_t delta, SeedPlan& plan,
                        SeedScratch& scratch) const = 0;

    /// Convenience overload allocating fresh plan + scratch. Derived
    /// classes re-expose it with `using Seeder::select;`.
    SeedPlan select(const index::FmIndex& fm,
                    std::span<const std::uint8_t> read,
                    std::uint32_t delta) const {
        SeedPlan plan;
        SeedScratch scratch;
        select(fm, read, delta, plan, scratch);
        return plan;
    }

    virtual std::string_view name() const noexcept = 0;

    /// Static per-work-item scratch bound for given read parameters —
    /// OpenCL 1.2 kernels allocate private memory statically, so the
    /// launch must budget for the worst case, not the per-read actual.
    virtual std::uint64_t scratch_bound(std::size_t read_length,
                                        std::uint32_t delta) const = 0;
};

/// Shared validation helper: checks n >= (delta+1) * s_min.
void validate_read_parameters(std::size_t read_length, std::uint32_t delta,
                              std::uint32_t s_min);

/// Pigeonhole zero certificate: true when `read` splits into delta+1
/// contiguous seeds of at least `s_min` bases none of which occurs in
/// `fm`. Any text substring within delta edits of the read would hold
/// one of those seeds exactly, so a certified read has no locus and no
/// candidates.
///
/// The split is greedy, right to left: each seed is the shortest
/// zero-count suffix (of at least s_min bases) of the prefix the later
/// seeds left, found with one backward scan that stops as soon as the
/// range empties. Lengthening a zero-count seed keeps it at zero and a
/// shorter seed leaves a longer prefix, so the greedy split finds a
/// zero partition exactly when one exists: the certificate holds iff
/// the optimum of an exact seeder (MemoryOptimizedSeeder,
/// OptimalSeeder) with this s_min is 0. Reads that cannot host
/// delta+1 seeds get no certificate. A scan whose range holds one row
/// finishes against the text (FrequencyScanner::unique_reach). Adds
/// the scans' work to `work`.
bool zero_certificate(const index::FmIndex& fm,
                      std::span<const std::uint8_t> read,
                      std::uint32_t delta, std::uint32_t s_min,
                      ScanWork& work);

/// Computes the FM ranges for an already-chosen partition (boundaries =
/// seed start offsets, ascending, first == 0), replacing `plan.seeds`
/// and adding the incurred work to the plan's accounting (counters are
/// NOT reset — DP accounting accumulated by the caller is preserved).
/// Each seed's range starts from the q-gram jump table when the index
/// has one, so only `length - q` real extends are issued per seed.
void plan_from_boundaries(const index::FmIndex& fm,
                          std::span<const std::uint8_t> read,
                          std::span<const std::uint16_t> boundaries,
                          SeedPlan& plan);

/// Value-returning convenience wrapper around the above.
SeedPlan plan_from_boundaries(const index::FmIndex& fm,
                              std::span<const std::uint8_t> read,
                              std::span<const std::uint16_t> boundaries);

} // namespace repute::filter
