#pragma once
// Test oracle: the plain full-table semi-global aligner. It fills all
// (m+1) x (t+1) cells by the textbook recurrence; the differential
// tests in test_align and test_cigar hold align::semiglobal_align to
// its output, byte for byte.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "align/edit_distance.hpp"

namespace repute::oracle {

inline std::optional<align::SemiGlobalAlignment> full_table_semiglobal_align(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance) {
    const std::size_t m = pattern.size();
    const std::size_t t = text.size();
    // Full table for traceback: D[(m+1) x (t+1)], row-major.
    std::vector<std::uint32_t> d((m + 1) * (t + 1));
    auto at = [&](std::size_t i, std::size_t j) -> std::uint32_t& {
        return d[i * (t + 1) + j];
    };
    // Row 0 is already zero (free text prefix): value-initialised.
    for (std::size_t i = 1; i <= m; ++i) {
        at(i, 0) = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = 1; i <= m; ++i) {
        for (std::size_t j = 1; j <= t; ++j) {
            at(i, j) = std::min(
                {at(i - 1, j) + 1, at(i, j - 1) + 1,
                 at(i - 1, j - 1) +
                     (pattern[i - 1] == text[j - 1] ? 0u : 1u)});
        }
    }

    std::size_t best_j = 0;
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t j = 0; j <= t; ++j) {
        if (at(m, j) < best) {
            best = at(m, j);
            best_j = j;
        }
    }
    if (best > max_distance) return std::nullopt;

    // Traceback, preferring diagonal moves for compact CIGARs.
    std::string ops;
    std::size_t i = m, j = best_j;
    while (i > 0) {
        if (j > 0 &&
            at(i, j) == at(i - 1, j - 1) +
                            (pattern[i - 1] == text[j - 1] ? 0u : 1u)) {
            ops.push_back('M');
            --i;
            --j;
        } else if (at(i, j) == at(i - 1, j) + 1) {
            ops.push_back('I'); // pattern base consumed, none from text
            --i;
        } else {
            ops.push_back('D'); // text base consumed, none from pattern
            --j;
        }
    }
    std::reverse(ops.begin(), ops.end());

    // Run-length encode into CIGAR.
    align::SemiGlobalAlignment out;
    out.distance = best;
    out.text_start = static_cast<std::uint32_t>(j);
    out.text_end = static_cast<std::uint32_t>(best_j);
    for (std::size_t k = 0; k < ops.size();) {
        std::size_t run = k;
        while (run < ops.size() && ops[run] == ops[k]) ++run;
        out.cigar += std::to_string(run - k);
        out.cigar.push_back(ops[k]);
        k = run;
    }
    return out;
}

} // namespace repute::oracle
