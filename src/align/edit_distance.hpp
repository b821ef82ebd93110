#pragma once
// Reference dynamic-programming aligners.
//
// These are the ground-truth implementations the fast kernels are tested
// against, plus the traceback used to emit CIGAR strings (the paper lists
// CIGAR output as future work; we ship it as the extension feature).
// Semi-global here means: the whole pattern must align, the text prefix
// and suffix are free — the standard verification setting where the text
// is a candidate window around a seed hit.

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace repute::align {

/// Plain Levenshtein distance (global on both strings). O(|a||b|) time,
/// O(min) space.
std::uint32_t levenshtein(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b);

/// Minimum edit distance of `pattern` against any substring of `text`
/// (free text start and end). O(|p||t|) time, O(|t|) space.
std::uint32_t semiglobal_distance(std::span<const std::uint8_t> pattern,
                                  std::span<const std::uint8_t> text);

/// Banded variant: explores only diagonals within +-band of the main
/// diagonal family. Returns the exact distance when it is <= band,
/// otherwise band+1 (a lower-bound cutoff). O(|p| * band) time.
std::uint32_t banded_semiglobal_distance(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t band);

struct SemiGlobalAlignment {
    std::uint32_t distance = 0;
    std::uint32_t text_start = 0; ///< aligned window [text_start, text_end)
    std::uint32_t text_end = 0;
    std::string cigar;            ///< M/I/D ops, pattern-relative
};

/// Semi-global alignment with traceback. A Myers/Hyyro bit-vector pass
/// computes every cell of the (|p| + 1) x (|t| + 1) table in delta form
/// (ceil(|p| / 64) words per text column, stored in per-thread scratch
/// reused across calls), and the traceback rebuilds cell values from
/// those deltas. The result (distance, the first best-scoring end
/// column, the diagonal-first traceback and so the CIGAR) is exactly the
/// full-table alignment's. Returns std::nullopt when the best distance
/// exceeds `max_distance`. Codes 0..3; patterns up to 512 bases (the
/// verification kernel's limit), std::invalid_argument beyond.
std::optional<SemiGlobalAlignment> semiglobal_align(
    std::span<const std::uint8_t> pattern,
    std::span<const std::uint8_t> text, std::uint32_t max_distance);

} // namespace repute::align
