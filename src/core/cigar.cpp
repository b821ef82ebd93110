#include "core/cigar.hpp"

#include <algorithm>

#include "align/edit_distance.hpp"
#include "util/packed_dna.hpp"

namespace repute::core {

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

    const std::vector<std::uint8_t> pattern =
        mapping.strand == genomics::Strand::Reverse
            ? read.reverse_complement()
            : read.codes;
    const auto window = reference.sequence().extract(win_lo, win_len);

    const auto alignment = align::semiglobal_align(pattern, window, delta);
    if (!alignment.has_value()) return std::nullopt;

    AnnotatedMapping out;
    out.mapping = mapping;
    out.mapping.edit_distance =
        static_cast<std::uint16_t>(alignment->distance);
    out.precise_position = win_lo + alignment->text_start;
    out.cigar = alignment->cigar;
    return out;
}

} // namespace repute::core
