#pragma once
// SAM-lite records.
//
// The paper's REPUTE reports (position, edit distance, strand) per
// mapping and defers full SAM/CIGAR to future work; SamRecord is a
// SAM-subset record that carries exactly those fields plus the CIGAR
// string and mate fields (implemented here as the paper's announced
// extension). pipeline::SamEmitter is the only writer; read_sam parses
// its output back for tests and the end-to-end benchmark's checker.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "genomics/sequence.hpp"

namespace repute::genomics {

struct SamRecord {
    std::string qname;       ///< read name
    std::uint16_t flag = 0;  ///< 0x10 = reverse strand, 0x4 = unmapped
    std::string rname;       ///< reference name ('*' if unmapped)
    std::uint32_t pos = 0;   ///< 1-based leftmost position (0 if unmapped)
    std::uint8_t mapq = 255;
    std::string cigar = "*";
    std::string seq = "*";
    std::uint32_t edit_distance = 0; ///< emitted as NM:i tag

    static constexpr std::uint16_t kFlagPaired = 0x1;
    static constexpr std::uint16_t kFlagProperPair = 0x2;
    static constexpr std::uint16_t kFlagUnmapped = 0x4;
    static constexpr std::uint16_t kFlagMateUnmapped = 0x8;
    static constexpr std::uint16_t kFlagReverse = 0x10;
    static constexpr std::uint16_t kFlagMateReverse = 0x20;
    static constexpr std::uint16_t kFlagFirstInPair = 0x40;
    static constexpr std::uint16_t kFlagSecondInPair = 0x80;
    static constexpr std::uint16_t kFlagSecondary = 0x100;

    // Mate fields (RNEXT/PNEXT/TLEN); defaults match single-end output.
    std::string rnext = "*";
    std::uint32_t pnext = 0;
    std::int32_t tlen = 0;

    bool unmapped() const noexcept { return flag & kFlagUnmapped; }
    Strand strand() const noexcept {
        return (flag & kFlagReverse) ? Strand::Reverse : Strand::Forward;
    }
};

/// Parses records written by pipeline::SamEmitter (headers skipped).
/// Tolerates missing optional tags; throws std::runtime_error on
/// malformed lines.
std::vector<SamRecord> read_sam(std::istream& in);

} // namespace repute::genomics
