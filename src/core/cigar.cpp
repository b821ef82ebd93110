#include "core/cigar.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "align/edit_distance.hpp"
#include "util/packed_dna.hpp"

namespace repute::core {

namespace {

/// Per-thread reverse complement and reference window, reused across
/// mappings so a warm thread re-aligns without allocating buffers.
struct AnnotateScratch {
    std::vector<std::uint8_t> reverse;
    std::vector<std::uint8_t> window;
};

} // namespace

std::optional<AnnotatedMapping> annotate_mapping(
    const genomics::Reference& reference, const genomics::Read& read,
    const ReadMapping& mapping, std::uint32_t delta) {
    const auto n = static_cast<std::uint32_t>(read.length());
    const auto text_len = static_cast<std::uint32_t>(reference.size());

    const std::uint32_t win_lo =
        mapping.position >= delta ? mapping.position - delta : 0;
    if (win_lo >= text_len) return std::nullopt;
    const std::uint32_t win_len =
        std::min<std::uint32_t>(n + 2 * delta, text_len - win_lo);

    thread_local AnnotateScratch scratch;
    std::span<const std::uint8_t> pattern = read.codes;
    if (mapping.strand == genomics::Strand::Reverse) {
        read.reverse_complement(scratch.reverse);
        pattern = scratch.reverse;
    }
    scratch.window.resize(win_len);
    reference.sequence().extract(win_lo, win_len, scratch.window.data());

    auto alignment =
        align::semiglobal_align(pattern, scratch.window, delta);
    if (!alignment.has_value()) return std::nullopt;

    AnnotatedMapping out;
    out.mapping = mapping;
    out.mapping.edit_distance =
        static_cast<std::uint16_t>(alignment->distance);
    out.precise_position = win_lo + alignment->text_start;
    out.cigar = std::move(alignment->cigar);
    return out;
}

} // namespace repute::core
