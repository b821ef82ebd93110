#include "filter/memopt_seeder.hpp"

#include <algorithm>
#include <limits>

#include "filter/frequency_scanner.hpp"

namespace repute::filter {

namespace {
constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) noexcept {
    return (a == kInf || b == kInf || a > kInf - b) ? kInf : a + b;
}
} // namespace

void MemoryOptimizedSeeder::select(const index::FmIndex& fm,
                                   std::span<const std::uint8_t> read,
                                   std::uint32_t delta, SeedPlan& plan,
                                   SeedScratch& scratch) const {
    validate_read_parameters(read.size(), delta, s_min_);
    const auto n = static_cast<std::uint32_t>(read.size());
    const std::uint32_t n_seeds = delta + 1;
    const std::uint32_t e = exploration_space(n, delta, s_min_);
    const std::uint32_t width = e + 1;

    plan.reset();
    FrequencyScanner scanner(fm, read);

    // Window rows for iterations 1..delta: opt[(x-1)*width + w] holds
    // Opt(x, p) for prefix end p = x*s_min + w. Iteration delta+1 needs
    // only p = n, whose value backtracking never reads.
    auto& opt = scratch.row_a;
    opt.assign(static_cast<std::size_t>(delta) * width, kInf);
    // dividers[(x-2)*width + w] = best divider d for (x, p).
    auto& dividers = scratch.dividers;
    dividers.assign(static_cast<std::size_t>(delta) * width, 0);
    // One backward scan per prefix end; the deepest is a full maximal
    // seed of s_min + e bases.
    auto& freqs = scratch.freqs;
    freqs.resize(s_min_ + e);

    // End-major walk: each prefix end p is scanned once, down to the
    // lowest divider any iteration whose window [x*s_min, x*s_min + e]
    // holds p can use, and that one scan serves every such iteration.
    // Opt(x-1, d) for d <= p - s_min was settled at an earlier end.
    for (std::uint32_t p = s_min_; p <= n; ++p) {
        const std::uint32_t x_top = p == n ? n_seeds : delta;
        const std::uint32_t x_hi = std::min(x_top, p / s_min_);
        const std::uint32_t x_lo =
            p > s_min_ + e ? (p - e + s_min_ - 1) / s_min_ : 1;
        if (x_lo > x_hi) continue;

        // out[k] = freq(d_lo + k, p); only seeds of s_min or more bases
        // are read.
        const std::uint32_t d_lo = (x_lo - 1) * s_min_;
        auto out = std::span<std::uint32_t>(freqs.data(), p - d_lo);
        scanner.suffix_frequencies(d_lo, p, out, plan, s_min_);

        for (std::uint32_t x = x_lo; x <= x_hi; ++x) {
            const std::uint32_t w = p - x * s_min_;
            std::uint32_t best = kInf;
            if (x == 1) {
                // A single k-mer covering [0, p).
                best = out[0];
                ++plan.dp_cells;
            } else {
                // The 1st section is the first x-1 k-mers, the 2nd the
                // x-th k-mer read[d, p) with d = d_min + w', w' <= w.
                // Scanning ascending keeps tie-breaks identical to
                // OptimalSeeder.
                const std::uint32_t d_min = (x - 1) * s_min_;
                const std::uint32_t* prev =
                    opt.data() + static_cast<std::size_t>(x - 2) * width;
                std::uint16_t best_d = 0;
                for (std::uint32_t wp = 0; wp <= w; ++wp) {
                    ++plan.dp_cells;
                    if (prev[wp] == kInf) continue;
                    const std::uint32_t d = d_min + wp;
                    const std::uint32_t total =
                        sat_add(prev[wp], out[d - d_lo]);
                    if (total < best) {
                        best = total;
                        best_d = static_cast<std::uint16_t>(d);
                        if (best == 0) break;
                    }
                }
                dividers[static_cast<std::size_t>(x - 2) * width + w] =
                    best_d;
            }
            if (x <= delta) {
                opt[static_cast<std::size_t>(x - 1) * width + w] = best;
            }
        }
    }

    // Backtracking (paper Fig. 2, bottom): recover dividers from the
    // last k-mer to the first.
    auto& boundaries = scratch.boundaries;
    boundaries.assign(n_seeds, 0);
    std::uint32_t p = n;
    for (std::uint32_t x = n_seeds; x >= 2; --x) {
        const std::uint32_t w = p - x * s_min_;
        const std::uint16_t d =
            dividers[static_cast<std::size_t>(x - 2) * width + w];
        boundaries[x - 1] = d;
        p = d;
    }
    boundaries[0] = 0;

    plan_from_boundaries(fm, read, boundaries, plan);
    plan.scratch_bytes =
        (opt.size() + freqs.size()) * sizeof(std::uint32_t) +
        dividers.size() * sizeof(std::uint16_t);
}

} // namespace repute::filter
