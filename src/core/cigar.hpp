#pragma once
// CIGAR annotation — the paper's announced extension ("future versions
// of REPUTE will deliver ... SAM output format", §IV).
//
// The mapping kernel reports candidate-diagonal positions and edit
// distances only (cheap, GPU-friendly). This host-side pass re-aligns
// each reported mapping with a bit-vector traceback
// (align::semiglobal_align) to recover the precise alignment start and
// the CIGAR string, upgrading the SAM-lite output (pipeline::SamEmitter)
// to spec-level records. Cost is one Myers pass of ceil(n / 64) words
// per column over the n + 2*delta reference window plus an O(n + delta)
// traceback, paid only for the mappings actually emitted, with no
// per-mapping allocation beyond the CIGAR string.

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/mapping.hpp"
#include "genomics/sequence.hpp"

namespace repute::core {

struct AnnotatedMapping {
    ReadMapping mapping;            ///< as reported by the kernel
    std::uint32_t precise_position; ///< exact 0-based alignment start
    std::string cigar;              ///< M/I/D operations
};

/// Re-aligns one mapping. Returns std::nullopt when the re-alignment
/// cannot reproduce a distance <= delta (should not happen for kernel
/// output; guards against stale results). `reverse`, when non-empty,
/// must be the read's reverse complement: a caller re-aligning several
/// records of one read builds it once; otherwise a reverse-strand
/// mapping builds it here.
std::optional<AnnotatedMapping> annotate_mapping(
    const genomics::Reference& reference, const genomics::Read& read,
    const ReadMapping& mapping, std::uint32_t delta,
    std::span<const std::uint8_t> reverse = {});

} // namespace repute::core
