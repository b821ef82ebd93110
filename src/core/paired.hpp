#pragma once
// Paired-end mapping on top of any single-end Mapper.
//
// Mates are mapped independently, then joined: a *proper pair* is a
// forward/reverse mapping combination whose outer distance (insert)
// falls inside the library window. When only one mate maps, the other
// is *rescued* by aligning it directly inside the window the library
// geometry predicts — the standard trick (BWA-style mate rescue) that
// converts the mapped mate's position into a second chance for the
// broken one, at a slightly relaxed edit budget.
//
// The paper evaluates single-end mapping only; this module is the
// library-level extension a downstream user of a read mapper expects.

#include <cstdint>
#include <vector>

#include "core/mapping.hpp"
#include "genomics/sequence.hpp"

namespace repute::core {

struct PairedConfig {
    std::uint32_t min_insert = 200; ///< outer distance, inclusive
    std::uint32_t max_insert = 600; ///< outer distance, inclusive
    bool enable_rescue = true;
    /// Extra edit budget a rescued mate is allowed (it failed at delta).
    std::uint32_t rescue_delta_bonus = 2;
};

enum class PairClass : std::uint8_t {
    Proper,         ///< both mates mapped, FR orientation, insert in range
    Rescued,        ///< one mate recovered via windowed alignment
    Discordant,     ///< both mapped, but no combination is proper
    OneMateUnmapped,
    BothUnmapped,
};

struct PairMapping {
    PairClass classification = PairClass::BothUnmapped;
    ReadMapping mate1;
    ReadMapping mate2;
    std::uint32_t insert_size = 0; ///< outer distance (0 if not proper)
};

struct PairedResult {
    std::vector<PairMapping> pairs; ///< best combination per pair
    double mapping_seconds = 0.0;   ///< both single-end passes + rescue
    /// Host<->device traffic of both single-end passes (rescue aligns
    /// host-side and moves nothing).
    std::uint64_t staged = 0;
    std::uint64_t drained = 0;

    std::size_t count(PairClass c) const noexcept;
    /// Same meaning as MapResult's, so pipeline sinks treat both alike.
    std::uint64_t bytes_staged() const noexcept { return staged; }
    std::uint64_t bytes_drained() const noexcept { return drained; }
};

/// SAM export of a paired run: two records per pair (first/second in
/// pair), with proper-pair/mate flags and RNEXT/PNEXT/TLEN filled.
std::vector<genomics::SamRecord> paired_to_sam(
    const genomics::ReadBatch& first, const genomics::ReadBatch& second,
    const PairedResult& result, const std::string& reference_name);

class PairedMapper {
public:
    /// `single` maps the individual mates; `reference` is needed for
    /// mate rescue. Both must outlive the PairedMapper.
    PairedMapper(Mapper& single, const genomics::Reference& reference,
                 PairedConfig config = {});

    /// Maps both mate batches (must be parallel: first.reads[i] pairs
    /// with second.reads[i]) and joins them. Throws
    /// std::invalid_argument on size mismatch. Mate lengths may differ
    /// — pairing geometry (insert, rescue window) is computed from each
    /// read's own length.
    PairedResult map_pairs(const genomics::ReadBatch& first,
                           const genomics::ReadBatch& second,
                           std::uint32_t delta);

    const PairedConfig& config() const noexcept { return config_; }

private:
    Mapper* single_;
    const genomics::Reference* reference_;
    PairedConfig config_;

    /// Best proper combination of two mapping lists, if any. `len1` /
    /// `len2` are the mates' own read lengths (insert size depends on
    /// which mate is the reverse one).
    bool find_proper(const std::vector<ReadMapping>& mappings1,
                     const std::vector<ReadMapping>& mappings2,
                     std::uint32_t len1, std::uint32_t len2,
                     PairMapping& out) const;

    /// Windowed re-alignment of `mate` near its partner's position.
    /// `anchor_len` is the mapped mate's read length, `mate_len` the
    /// missing mate's — both enter the expected-window geometry.
    bool rescue(const genomics::Read& mate, const ReadMapping& anchor,
                std::uint32_t anchor_len, std::uint32_t mate_len,
                std::uint32_t delta, ReadMapping& out) const;
};

} // namespace repute::core
