#include "align/edit_distance.hpp"

#include <algorithm>
#include <vector>

namespace repute::align {

std::uint32_t levenshtein(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
    if (a.size() > b.size()) std::swap(a, b);
    std::vector<std::uint32_t> row(a.size() + 1);
    for (std::size_t i = 0; i <= a.size(); ++i) {
        row[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t j = 1; j <= b.size(); ++j) {
        std::uint32_t diag = row[0];
        row[0] = static_cast<std::uint32_t>(j);
        for (std::size_t i = 1; i <= a.size(); ++i) {
            const std::uint32_t up = row[i];
            row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0u : 1u)});
            diag = up;
        }
    }
    return row[a.size()];
}

std::uint32_t semiglobal_distance(std::span<const std::uint8_t> pattern,
                                  std::span<const std::uint8_t> text) {
    // Column-wise over text; D[0][j] = 0 (free text prefix).
    std::vector<std::uint32_t> col(pattern.size() + 1);
    for (std::size_t i = 0; i <= pattern.size(); ++i) {
        col[i] = static_cast<std::uint32_t>(i);
    }
    std::uint32_t best = col[pattern.size()];
    for (std::size_t j = 1; j <= text.size(); ++j) {
        std::uint32_t diag = col[0];
        col[0] = 0;
        for (std::size_t i = 1; i <= pattern.size(); ++i) {
            const std::uint32_t up = col[i];
            col[i] =
                std::min({col[i] + 1, col[i - 1] + 1,
                          diag + (pattern[i - 1] == text[j - 1] ? 0u : 1u)});
            diag = up;
        }
        best = std::min(best, col[pattern.size()]);
    }
    return best;
}

std::uint32_t banded_semiglobal_distance(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t band) {
    // Row-wise over the pattern; for row i only text columns within
    // [i - band, i + band + slack] can be on an alignment path of cost
    // <= band, where slack = |text| - |pattern| absorbs the free ends.
    const std::uint32_t infinity = band + 1;
    const std::size_t m = pattern.size();
    const std::size_t t = text.size();
    if (m == 0) return 0;
    if (t + band < m) return infinity; // too short even with all inserts

    const std::size_t slack = t > m ? t - m : 0;
    const std::size_t width = 2 * band + slack + 1;

    // prev[w] = D[i-1][j] with j = (i-1) - band + w (clamped to >= 0).
    std::vector<std::uint32_t> prev(width + 2, infinity);
    std::vector<std::uint32_t> curr(width + 2, infinity);

    auto col_of = [&](std::size_t i, std::size_t w) -> std::ptrdiff_t {
        return static_cast<std::ptrdiff_t>(i + w) -
               static_cast<std::ptrdiff_t>(band);
    };

    // Row 0: D[0][j] = 0 for all j in band.
    for (std::size_t w = 0; w < width; ++w) {
        const auto j = col_of(0, w);
        if (j >= 0 && j <= static_cast<std::ptrdiff_t>(t)) prev[w] = 0;
    }

    for (std::size_t i = 1; i <= m; ++i) {
        std::fill(curr.begin(), curr.end(), infinity);
        for (std::size_t w = 0; w < width; ++w) {
            const auto j = col_of(i, w);
            if (j < 0 || j > static_cast<std::ptrdiff_t>(t)) continue;
            std::uint32_t best = infinity;
            if (j == 0) {
                best = static_cast<std::uint32_t>(std::min<std::size_t>(
                    i, infinity));
            } else {
                // Same w in prev row is the diagonal neighbour
                // (j - 1 = (i-1) - band + w).
                const std::uint32_t diag = prev[w];
                if (diag != infinity) {
                    best = std::min(
                        best,
                        diag + (pattern[i - 1] ==
                                        text[static_cast<std::size_t>(j - 1)]
                                    ? 0u
                                    : 1u));
                }
                // Up neighbour D[i-1][j] lives at prev[w+1].
                if (w + 1 < width && prev[w + 1] != infinity) {
                    best = std::min(best, prev[w + 1] + 1);
                }
                // Left neighbour D[i][j-1] lives at curr[w-1].
                if (w > 0 && curr[w - 1] != infinity) {
                    best = std::min(best, curr[w - 1] + 1);
                }
            }
            curr[w] = std::min(best, infinity);
        }
        std::swap(prev, curr);
    }

    std::uint32_t best = infinity;
    for (std::size_t w = 0; w < width; ++w) {
        const auto j = col_of(m, w);
        if (j >= 0 && j <= static_cast<std::ptrdiff_t>(t)) {
            best = std::min(best, prev[w]);
        }
    }
    return best;
}

namespace {

/// Per-thread DP rows and traceback ops for `semiglobal_align`, reused
/// across calls (the same warm-scratch idiom as core::KernelScratch):
/// after a thread's first alignment of a given size it allocates only
/// the returned CIGAR.
struct AlignScratch {
    std::vector<std::uint32_t> table;
    std::string ops;
};

} // namespace

std::optional<SemiGlobalAlignment> semiglobal_align(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance) {
    const std::size_t m = pattern.size();
    const std::size_t t = text.size();
    // No distance exceeds m, so a larger budget bands nothing more.
    const std::size_t delta = std::min<std::size_t>(max_distance, m);
    // Every end column costs at least m - t: too short for the budget.
    if (m > t + delta) return std::nullopt;

    // Band: diagonals k = j - i in [-delta, t - m + delta]. A path of
    // cost <= delta from row 0 to row m never leaves it, so every cell on
    // an optimal path holds its full-table value, and any other cell
    // holds its full-table value or something > delta; the argmin and
    // the traceback below therefore pick exactly what the full table
    // would (DESIGN.md §5i). Cell (i, j) lives at column
    // c = j - i + delta + 1 of row i. The recurrence runs on at most
    // `width` columns per row; columns outside the text or the band
    // hold `far` (> delta).
    const std::size_t width = t + 2 * delta + 1 - m;
    const std::size_t stride = width + 2;
    const auto far = static_cast<std::uint32_t>(delta + 1);
    thread_local AlignScratch scratch;
    auto& table = scratch.table;
    table.resize((m + 1) * stride);
    auto row = [&](std::size_t i) { return table.data() + i * stride; };
    // Columns of row i whose text column j lies in [0, t].
    auto first_col = [&](std::size_t i) {
        return (i > delta ? i - delta : 0) + delta + 1 - i;
    };
    auto last_col = [&](std::size_t i) {
        return std::min(t, i + t + delta - m) + delta + 1 - i;
    };

    for (std::size_t i = 0; i <= m; ++i) {
        std::uint32_t* r = row(i);
        const std::size_t lo = first_col(i);
        const std::size_t hi = last_col(i);
        std::fill(r, r + lo, far);
        std::fill(r + hi + 1, r + stride, far);
        if (i == 0) {
            std::fill(r + lo, r + hi + 1, 0u); // free text prefix
            continue;
        }
        const std::uint32_t* p = row(i - 1);
        const std::uint8_t base = pattern[i - 1];
        std::size_t c = lo;
        if (i <= delta) r[c++] = static_cast<std::uint32_t>(i); // j == 0
        // Text column j - 1 of column c: j = c + i - delta - 1. The left
        // neighbour stays in a register, off the store-to-load path.
        const std::uint8_t* tj = text.data() + (c + i) - delta - 2;
        std::uint32_t left = r[c - 1];
        for (; c <= hi; ++c, ++tj) {
            const std::uint32_t diag = p[c] + (base != *tj ? 1u : 0u);
            const std::uint32_t up = p[c + 1] + 1;
            left = std::min(std::min(diag, up), left + 1);
            r[c] = left;
        }
    }

    // First argmin of the last row, as the full table would pick it.
    const std::uint32_t* last = row(m);
    std::size_t best_c = first_col(m);
    for (std::size_t c = best_c + 1, hi = last_col(m); c <= hi; ++c) {
        if (last[c] < last[best_c]) best_c = c;
    }
    const std::uint32_t best = last[best_c];
    if (best > delta) return std::nullopt;
    const std::size_t best_j = best_c + m - delta - 1;

    // Traceback, preferring diagonal moves for compact CIGARs.
    std::string& ops = scratch.ops;
    ops.clear();
    std::size_t i = m, j = best_j, c = best_c;
    while (i > 0) {
        const std::uint32_t here = row(i)[c];
        const std::uint32_t* p = row(i - 1);
        if (j > 0 &&
            here == p[c] + (pattern[i - 1] == text[j - 1] ? 0u : 1u)) {
            ops.push_back('M');
            --i;
            --j;
        } else if (here == p[c + 1] + 1) {
            ops.push_back('I'); // pattern base consumed, none from text
            --i;
            ++c;
        } else {
            ops.push_back('D'); // text base consumed, none from pattern
            --j;
            --c;
        }
    }

    // Run-length encode into CIGAR (ops were pushed end to start).
    SemiGlobalAlignment out;
    out.distance = best;
    out.text_start = static_cast<std::uint32_t>(j);
    out.text_end = static_cast<std::uint32_t>(best_j);
    for (std::size_t k = ops.size(); k > 0;) {
        std::size_t run = k;
        while (run > 0 && ops[run - 1] == ops[k - 1]) --run;
        out.cigar += std::to_string(k - run);
        out.cigar.push_back(ops[k - 1]);
        k = run;
    }
    return out;
}

} // namespace repute::align
