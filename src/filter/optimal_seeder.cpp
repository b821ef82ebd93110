#include "filter/optimal_seeder.hpp"

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

void OptimalSeeder::select(const index::FmIndex& fm,
                           std::span<const std::uint8_t> read,
                           std::uint32_t delta, SeedPlan& plan,
                           SeedScratch& scratch) const {
    validate_read_parameters(read.size(), delta, s_min_);
    const auto n = static_cast<std::uint32_t>(read.size());
    const std::uint32_t n_seeds = delta + 1;
    // No seed can be longer than this (the other delta seeds need s_min
    // bases each), so the frequency table needs only l_max columns.
    const std::uint32_t l_max = n - delta * s_min_;

    plan.reset();
    FrequencyScanner scanner(fm, read);

    // freq_table[(p-1) * l_max + (len-1)] = freq of read[p-len, p).
    auto& freq_table = scratch.freq_table;
    freq_table.assign(static_cast<std::size_t>(n) * l_max, 0);
    auto& scan_buffer = scratch.freqs;
    scan_buffer.resize(l_max);
    for (std::uint32_t p = 1; p <= n; ++p) {
        const std::uint32_t depth = std::min(p, l_max);
        const std::uint32_t min_start = p - depth;
        auto out = std::span<std::uint32_t>(scan_buffer.data(), depth);
        scanner.suffix_frequencies(min_start, p, out, plan);
        // out[k] = freq(min_start + k, p) -> len = p - (min_start + k).
        for (std::uint32_t k = 0; k < depth; ++k) {
            const std::uint32_t len = p - (min_start + k);
            freq_table[static_cast<std::size_t>(p - 1) * l_max +
                       (len - 1)] = out[k];
        }
    }
    auto freq = [&](std::uint32_t d, std::uint32_t p) {
        return freq_table[static_cast<std::size_t>(p - 1) * l_max +
                          (p - d - 1)];
    };

    // Full-width DP rows and divider matrix.
    auto& prev = scratch.row_a;
    auto& curr = scratch.row_b;
    prev.assign(n + 1, kInf);
    curr.assign(n + 1, kInf);
    auto& dividers = scratch.dividers;
    dividers.assign(static_cast<std::size_t>(n_seeds + 1) * (n + 1), 0);

    // Base: one k-mer covering [0, p).
    for (std::uint32_t p = s_min_; p + delta * s_min_ <= n; ++p) {
        prev[p] = freq(0, p);
        ++plan.dp_cells;
    }

    for (std::uint32_t x = 2; x <= n_seeds; ++x) {
        std::fill(curr.begin(), curr.end(), kInf);
        const std::uint32_t p_lo = x * s_min_;
        const std::uint32_t p_hi = n - (n_seeds - x) * s_min_;
        for (std::uint32_t p = p_lo; p <= p_hi; ++p) {
            std::uint32_t best = kInf;
            std::uint16_t best_d = 0;
            const std::uint32_t d_lo = (x - 1) * s_min_;
            const std::uint32_t d_hi = p - s_min_;
            for (std::uint32_t d = d_lo; d <= d_hi; ++d) {
                ++plan.dp_cells;
                if (prev[d] == kInf) continue;
                const std::uint32_t total = sat_add(prev[d], freq(d, p));
                if (total < best) {
                    best = total;
                    best_d = static_cast<std::uint16_t>(d);
                    if (best == 0) break; // cannot improve on zero
                }
            }
            curr[p] = best;
            dividers[static_cast<std::size_t>(x) * (n + 1) + p] = best_d;
        }
        std::swap(prev, curr);
    }

    // Backtrack dividers from the full read.
    auto& boundaries = scratch.boundaries;
    boundaries.assign(n_seeds, 0);
    std::uint32_t p = n;
    for (std::uint32_t x = n_seeds; x >= 2; --x) {
        const std::uint16_t d =
            dividers[static_cast<std::size_t>(x) * (n + 1) + p];
        boundaries[x - 1] = d;
        p = d;
    }
    boundaries[0] = 0;

    plan_from_boundaries(fm, read, boundaries, plan);
    plan.scratch_bytes =
        freq_table.size() * sizeof(std::uint32_t) +
        (prev.size() + curr.size()) * sizeof(std::uint32_t) +
        dividers.size() * sizeof(std::uint16_t);
}

} // namespace repute::filter
