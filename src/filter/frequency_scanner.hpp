#pragma once
// Incremental k-mer frequency scanning.
//
// The DP seeders need freq(d, e) — the number of reference occurrences of
// read[d, e) — for many (d, e) pairs sharing the same end e. FM-Index
// backward search extends patterns by *prepending* a character, so for a
// fixed end e the frequencies for all starts d = e-1, e-2, ... fall out
// of one backward scan at one extension step each. Once the range goes
// empty it stays empty for every smaller d, so the scan short-circuits.
//
// When the index carries a q-gram jump table, the first q steps of every
// scan are table lookups instead of extend() calls: same ranges, same
// counts (the table is built by extend()), but one L2-resident load per
// step instead of two rank-block probes.
//
// Text anchoring. Once the range holds one row, read[d, e) occurs
// exactly once, at some text position t, and a longer suffix
// read[d', e) occurs once (at t - (d - d')) if read[d', d) equals the
// text just before t, and nowhere otherwise. The scan then locates the
// row once and settles every longer suffix by comparing the packed read
// with the packed text the index borrows (FmIndex::text()), 32 bases
// per XOR, instead of one extend (two rank-block probes) per base. The
// anchor carries to the next prefix end: read[d, e + 1) occurs once
// iff the text base after the occurrence is read[e], so a one-base
// check replaces the next scan's locate and compare. The counts are
// exact either way; the work kinds are accounted separately (ScanWork)
// so the modeled device ops stay honest.

#include <array>
#include <cstdint>
#include <span>

#include "index/fm_index.hpp"

namespace repute::filter {

/// Work a scan performed, one counter per modeled work kind.
struct ScanWork {
    std::uint64_t fm_extends = 0;  ///< backward-search extension steps
    std::uint64_t qgram_jumps = 0; ///< jump-table lookups replacing extends
    std::uint64_t anchor_locates = 0; ///< SA locates of one-row ranges
    std::uint64_t text_words = 0;     ///< packed text words compared
    std::uint64_t text_settled = 0;   ///< suffix counts the text settled
};

class FrequencyScanner {
public:
    /// Longest read the scanner packs (the kernel limit).
    static constexpr std::size_t kMaxReadLength = 512;

    /// `read` holds 2-bit codes; throws std::invalid_argument when it
    /// is longer than kMaxReadLength.
    FrequencyScanner(const index::FmIndex& fm,
                     std::span<const std::uint8_t> read);

    /// Fills `out[k]` with freq(min_start + k, end) for
    /// k in [0, end - min_start), i.e. frequencies of every suffix of
    /// read[min_start, end) that ends at `end`, and adds the work to
    /// `work`. Suffixes shorter than `min_length` are left unwritten: a
    /// seeder that never asks for them (seeds have at least s_min
    /// bases) lets the scan jump straight to that depth in the q-gram
    /// table. Keeps the text anchor for the next call, so end-major
    /// callers (the DP seeders) should scan ends in ascending order.
    void suffix_frequencies(std::uint32_t min_start, std::uint32_t end,
                            std::span<std::uint32_t> out, ScanWork& work,
                            std::uint32_t min_length = 1);

    /// Convenience overload returning only the extension-step count.
    std::uint64_t suffix_frequencies(std::uint32_t min_start,
                                     std::uint32_t end,
                                     std::span<std::uint32_t> out) {
        ScanWork work;
        suffix_frequencies(min_start, end, out, work);
        return work.fm_extends;
    }

    /// For read[d, end) occurring exactly once, in FM row `row`: the
    /// smallest d' >= lo such that read[d', end) occurs (it then occurs
    /// once). Locates `row` and compares the read with the text.
    std::uint32_t unique_reach(std::uint32_t d, std::uint32_t row,
                               std::uint32_t lo, ScanWork& work) const;

    /// Frequency of the single k-mer read[start, end), by FM search
    /// alone.
    std::uint32_t frequency(std::uint32_t start, std::uint32_t end,
                            std::uint64_t* fm_extends = nullptr,
                            std::uint64_t* qgram_jumps = nullptr) const;

private:
    /// read[start, end) occurs exactly once, at text position `pos`,
    /// and read[reach, end) still matches the text there. `exact`:
    /// read[reach - 1] mismatches the text (or reach - 1 would fall
    /// before the text start), so no longer suffix occurs.
    struct Anchor {
        bool valid = false;
        std::uint32_t end = 0;
        std::uint32_t start = 0;
        std::uint32_t pos = 0;
        std::uint32_t reach = 0;
        bool exact = false;
    };

    /// Lowest d' >= lo with read[d', d) equal to the text before `t`.
    std::uint32_t match_down(std::uint32_t d, std::uint32_t t,
                             std::uint32_t lo, ScanWork& work) const;

    const index::FmIndex* fm_;
    std::span<const std::uint8_t> read_;
    std::array<std::uint64_t, kMaxReadLength / 32> read_words_{};
    Anchor anchor_;
};

} // namespace repute::filter
