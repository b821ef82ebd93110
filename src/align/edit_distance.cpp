#include "align/edit_distance.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
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

/// Per-thread column deltas and traceback ops for `semiglobal_align`,
/// reused across calls (the same warm-scratch idiom as
/// core::KernelScratch): after a thread's first alignment of a given
/// size it allocates only the returned CIGAR.
struct AlignScratch {
    std::vector<std::uint64_t> columns; ///< per text column: Pv Mv Ph Mh
    std::string ops;
};

/// Bit r of the multi-word row vector `words` (row r + 1 of the table).
inline int row_bit(const std::uint64_t* words, std::size_t r) noexcept {
    return static_cast<int>((words[r / 64] >> (r % 64)) & 1u);
}

/// semiglobal_align for 64 * (W - 1) < |pattern| <= 64 * W. W is a
/// template parameter so the column state stays in registers.
template <std::size_t W>
std::optional<SemiGlobalAlignment> align_words(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance,
    AlignScratch& scratch) {
    const std::size_t m = pattern.size();
    const std::size_t t = text.size();
    const unsigned top_bit = static_cast<unsigned>((m - 1) % 64);
    const std::uint64_t top_mask = ~0ULL >> (63 - top_bit);

    std::array<std::array<std::uint64_t, W>, 4> peq{};
    for (std::size_t i = 0; i < m; ++i) {
        peq[pattern[i]][i / 64] |= 1ULL << (i % 64);
    }

    // Forward pass (Myers 1999, Hyyrö's search-mode formulation): all W
    // words of every column, so the stored deltas are the full table.
    // Text column j + 1 stores, at columns[4W * j], its vertical deltas
    // Pv/Mv (bit i - 1: D[i][j+1] - D[i-1][j+1] is +1/-1) and its
    // horizontal deltas Ph/Mh (bit i - 1: D[i][j+1] - D[i][j] is +1/-1).
    auto& columns = scratch.columns;
    if (columns.size() < 4 * W * t) columns.resize(4 * W * t);
    std::array<std::uint64_t, W> vp, vn{};
    vp.fill(~0ULL); // column 0: D[i][0] = i
    vp[W - 1] = top_mask;
    auto score = static_cast<std::uint32_t>(m);
    std::uint32_t best = score;
    std::size_t best_j = 0; // first argmin of row m, as the full table
    for (std::size_t j = 0; j < t; ++j) {
        const auto& eq = peq[text[j]];
        std::uint64_t* col = columns.data() + 4 * W * j;
        std::array<std::uint64_t, W> ph, mh;
        std::uint64_t carry = 0;
        for (std::size_t w = 0; w < W; ++w) {
            // Xh = (((Eq & Pv) + Pv) ^ Pv) | Eq, carrying across words.
            const std::uint64_t a = eq[w] & vp[w];
            const std::uint64_t sum_lo = a + vp[w];
            const std::uint64_t sum = sum_lo + carry;
            carry = (sum_lo < a) | (sum < sum_lo);
            const std::uint64_t xh = (sum ^ vp[w]) | eq[w];
            ph[w] = vn[w] | ~(xh | vp[w]);
            mh[w] = vp[w] & xh;
        }
        ph[W - 1] &= top_mask;
        score += static_cast<std::uint32_t>((ph[W - 1] >> top_bit) & 1u);
        score -= static_cast<std::uint32_t>((mh[W - 1] >> top_bit) & 1u);
        if (score < best) {
            best = score;
            best_j = j + 1;
        }
        // Row 0 is all zeros (free text prefix): no delta shifts in.
        std::uint64_t ph_in = 0, mh_in = 0;
        for (std::size_t w = 0; w < W; ++w) {
            col[2 * W + w] = ph[w];
            col[3 * W + w] = mh[w];
            const std::uint64_t ph_out = ph[w] >> 63;
            const std::uint64_t mh_out = mh[w] >> 63;
            ph[w] = (ph[w] << 1) | ph_in;
            mh[w] = (mh[w] << 1) | mh_in;
            ph_in = ph_out;
            mh_in = mh_out;
            const std::uint64_t valid = w + 1 == W ? top_mask : ~0ULL;
            const std::uint64_t xv = eq[w] | vn[w];
            vp[w] = (mh[w] | ~(xv | ph[w])) & valid;
            vn[w] = ph[w] & xv & valid;
            col[w] = vp[w];
            col[W + w] = vn[w];
        }
    }
    if (best > max_distance) return std::nullopt;

    // Traceback from (m, best_j), rebuilding each neighbour's value from
    // the stored deltas: D[i-1][j] = D[i][j] - vD(i, j), D[i-1][j-1] =
    // D[i-1][j] - hD(i-1, j) (row 0's hD is 0), D[i][j-1] = D[i][j] -
    // hD(i, j). Diagonal moves first for compact CIGARs, then up, then
    // left, exactly as the full table breaks ties.
    std::string& ops = scratch.ops;
    ops.clear();
    std::size_t i = m, j = best_j;
    auto here = static_cast<int>(best);
    while (i > 0 && j > 0) {
        const std::uint64_t* col = columns.data() + 4 * W * (j - 1);
        const int v = row_bit(col, i - 1) - row_bit(col + W, i - 1);
        const int up = here - v;
        const int diag =
            i > 1 ? up - (row_bit(col + 2 * W, i - 2) -
                          row_bit(col + 3 * W, i - 2))
                  : 0;
        if (here == diag + (pattern[i - 1] != text[j - 1] ? 1 : 0)) {
            ops.push_back('M');
            --i;
            --j;
            here = diag;
        } else if (v == 1) {
            ops.push_back('I'); // pattern base consumed, none from text
            --i;
            here = up;
        } else {
            ops.push_back('D'); // text base consumed, none from pattern
            here -= row_bit(col + 2 * W, i - 1) - row_bit(col + 3 * W, i - 1);
            --j;
        }
    }
    ops.append(i, 'I'); // column 0: D[i][0] = i, only insertions remain

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

} // namespace

std::optional<SemiGlobalAlignment> semiglobal_align(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance) {
    const std::size_t m = pattern.size();
    if (m == 0) return SemiGlobalAlignment{}; // empty alignment at 0
    const std::size_t words = (m + 63) / 64;
    if (words > 8) {
        throw std::invalid_argument(
            "semiglobal_align: pattern length must be at most 512");
    }
    // Every end column costs at least m - t: too short for the budget.
    if (m > text.size() + max_distance) return std::nullopt;
    thread_local AlignScratch scratch;
    switch (words) {
    case 1: return align_words<1>(pattern, text, max_distance, scratch);
    case 2: return align_words<2>(pattern, text, max_distance, scratch);
    case 3: return align_words<3>(pattern, text, max_distance, scratch);
    case 4: return align_words<4>(pattern, text, max_distance, scratch);
    case 5: return align_words<5>(pattern, text, max_distance, scratch);
    case 6: return align_words<6>(pattern, text, max_distance, scratch);
    case 7: return align_words<7>(pattern, text, max_distance, scratch);
    default: return align_words<8>(pattern, text, max_distance, scratch);
    }
}

} // namespace repute::align
