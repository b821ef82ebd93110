#pragma once
// REPUTE's memory-optimized DP filtration (paper §II-B, Fig. 2).
//
// Produces exactly the partitions of the full Optimal Seed Solver, but
// with the DP confined to the feasible "exploration space" of
// E + 1 = n - s_min*(delta+1) + 1 prefixes per iteration:
//
//   * iteration x (x = 1..delta) examines prefix ends
//     p in [x*s_min, x*s_min + E] only — every other prefix cannot be
//     completed into delta+1 seeds of length >= s_min — and the last
//     iteration examines p = n alone, the only end backtracking reads;
//   * the DP walks end-major: one backward frequency scan per prefix end
//     (no n x Lmax frequency table), reaching down to the lowest divider
//     any iteration whose window holds that end can use, and updating
//     all of those iterations from it;
//   * scratch is delta window rows of u32 costs, delta window rows of
//     u16 dividers (the paper's bit-width optimization) and one scan
//     buffer — O(delta * E), against the full OSS's O(n * Lmax).
//
// The trade-off surface the paper reports falls out directly: smaller
// s_min => larger window => better partitions but more scratch memory
// and more filtration work; larger s_min => tiny window but more
// candidates to verify (Fig. 4).

#include "filter/seed.hpp"

namespace repute::filter {

class MemoryOptimizedSeeder final : public Seeder {
public:
    explicit MemoryOptimizedSeeder(std::uint32_t s_min = 12)
        : s_min_(s_min) {}

    using Seeder::select;
    void select(const index::FmIndex& fm,
                std::span<const std::uint8_t> read, std::uint32_t delta,
                SeedPlan& plan, SeedScratch& scratch) const override;

    std::string_view name() const noexcept override { return "repute-dp"; }

    /// delta window rows of u32 costs and of u16 dividers, plus one
    /// scan buffer of s_min + E frequencies (the paper's bounded
    /// exploration space).
    std::uint64_t scratch_bound(std::size_t read_length,
                                std::uint32_t delta) const override {
        const std::uint64_t e =
            exploration_space(read_length, delta, s_min_);
        const std::uint64_t cells = std::uint64_t{delta} * (e + 1);
        return (cells + s_min_ + e) * 4 + cells * 2;
    }

    std::uint32_t s_min() const noexcept { return s_min_; }

    /// Exploration-space size E for given read parameters (number of
    /// extra prefixes beyond the minimal one, >= 0).
    static std::uint32_t exploration_space(std::size_t read_length,
                                           std::uint32_t delta,
                                           std::uint32_t s_min) noexcept {
        const auto needed =
            static_cast<std::uint32_t>((delta + 1) * s_min);
        const auto n = static_cast<std::uint32_t>(read_length);
        // Saturate: a read shorter than its seed budget is rejected by
        // validate_read_parameters at select() time; the scratch bound
        // must not underflow into a bogus huge allocation before that
        // clear error can surface.
        return n > needed ? n - needed : 0;
    }

private:
    std::uint32_t s_min_;
};

} // namespace repute::filter
