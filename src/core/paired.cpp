#include "core/paired.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/myers.hpp"
#include "util/packed_dna.hpp"

namespace repute::core {

namespace {

/// Insert size of a candidate FR combination, or 0 when the geometry is
/// wrong. `fwd_pos` is the forward mate's start, `rev_pos` the reverse
/// mate's (both 0-based read starts on the forward strand); `rev_len`
/// is the reverse mate's read length — the outer distance runs to the
/// reverse mate's rightmost base, so only its length enters.
std::uint32_t fr_insert(std::uint32_t fwd_pos, std::uint32_t rev_pos,
                        std::uint32_t rev_len) noexcept {
    if (rev_pos < fwd_pos) return 0;
    return rev_pos + rev_len - fwd_pos;
}

} // namespace

std::vector<genomics::SamRecord> paired_to_sam(
    const genomics::ReadBatch& first, const genomics::ReadBatch& second,
    const PairedResult& result, const std::string& reference_name) {
    using genomics::SamRecord;
    std::vector<SamRecord> records;
    records.reserve(2 * result.pairs.size());
    // String (not literal) sources: assigning "*" / "=" directly inside
    // the inlined lambda trips GCC 12's -Wrestrict false positive.
    static const std::string kStar = "*";
    static const std::string kSame = "=";

    for (std::size_t i = 0; i < result.pairs.size(); ++i) {
        const PairMapping& pair = result.pairs[i];
        bool m1 = false, m2 = false;
        switch (pair.classification) {
            case PairClass::Proper:
            case PairClass::Rescued:
            case PairClass::Discordant: m1 = m2 = true; break;
            case PairClass::OneMateUnmapped:
                // Only the mapped side was filled; the other mate reads
                // as a value-initialized ReadMapping.
                m1 = !(pair.mate1 == ReadMapping{});
                m2 = !(pair.mate2 == ReadMapping{});
                break;
            case PairClass::BothUnmapped: break;
        }
        const bool proper = pair.classification == PairClass::Proper ||
                            pair.classification == PairClass::Rescued;

        auto make_record = [&](bool is_first) {
            const auto& read =
                is_first ? first.reads[i] : second.reads[i];
            const auto& own = is_first ? pair.mate1 : pair.mate2;
            const auto& other = is_first ? pair.mate2 : pair.mate1;
            const bool own_mapped = is_first ? m1 : m2;
            const bool other_mapped = is_first ? m2 : m1;

            SamRecord rec;
            rec.qname = read.name;
            rec.seq = read.to_string();
            rec.flag = SamRecord::kFlagPaired |
                       (is_first ? SamRecord::kFlagFirstInPair
                                 : SamRecord::kFlagSecondInPair);
            if (!own_mapped) {
                rec.flag |= SamRecord::kFlagUnmapped;
                rec.rname = kStar;
            } else {
                rec.rname = reference_name;
                rec.pos = own.position + 1;
                rec.edit_distance = own.edit_distance;
                if (own.strand == genomics::Strand::Reverse) {
                    rec.flag |= SamRecord::kFlagReverse;
                }
                if (proper) rec.flag |= SamRecord::kFlagProperPair;
            }
            if (!other_mapped) {
                rec.flag |= SamRecord::kFlagMateUnmapped;
            } else {
                rec.rnext = kSame;
                rec.pnext = other.position + 1;
                if (other.strand == genomics::Strand::Reverse) {
                    rec.flag |= SamRecord::kFlagMateReverse;
                }
                if (own_mapped && proper) {
                    const std::int32_t span =
                        static_cast<std::int32_t>(pair.insert_size);
                    // Leftmost mate gets +TLEN, rightmost -TLEN.
                    rec.tlen = own.position <= other.position ? span
                                                              : -span;
                }
            }
            return rec;
        };
        records.push_back(make_record(true));
        records.push_back(make_record(false));
    }
    return records;
}

std::size_t PairedResult::count(PairClass c) const noexcept {
    std::size_t n = 0;
    for (const auto& p : pairs) n += (p.classification == c) ? 1 : 0;
    return n;
}

PairedMapper::PairedMapper(Mapper& single,
                           const genomics::Reference& reference,
                           PairedConfig config)
    : single_(&single), reference_(&reference), config_(config) {
    if (config_.min_insert > config_.max_insert) {
        throw std::invalid_argument(
            "PairedMapper: min_insert > max_insert");
    }
}

bool PairedMapper::find_proper(const std::vector<ReadMapping>& mappings1,
                               const std::vector<ReadMapping>& mappings2,
                               std::uint32_t len1, std::uint32_t len2,
                               PairMapping& out) const {
    bool found = false;
    std::uint32_t best_edit = 0;
    std::uint32_t best_offcenter = 0;
    const std::uint32_t mid =
        (config_.min_insert + config_.max_insert) / 2;

    auto consider = [&](const ReadMapping& m1, const ReadMapping& m2) {
        // FR: one mate forward, the other reverse, forward one first.
        const ReadMapping* fwd = nullptr;
        const ReadMapping* rev = nullptr;
        if (m1.strand == genomics::Strand::Forward &&
            m2.strand == genomics::Strand::Reverse) {
            fwd = &m1;
            rev = &m2;
        } else if (m1.strand == genomics::Strand::Reverse &&
                   m2.strand == genomics::Strand::Forward) {
            fwd = &m2;
            rev = &m1;
        } else {
            return;
        }
        const std::uint32_t insert = fr_insert(
            fwd->position, rev->position, rev == &m1 ? len1 : len2);
        if (insert < config_.min_insert || insert > config_.max_insert) {
            return;
        }
        const std::uint32_t edit = m1.edit_distance + m2.edit_distance;
        const std::uint32_t offcenter =
            insert > mid ? insert - mid : mid - insert;
        if (!found || edit < best_edit ||
            (edit == best_edit && offcenter < best_offcenter)) {
            found = true;
            best_edit = edit;
            best_offcenter = offcenter;
            out.mate1 = m1;
            out.mate2 = m2;
            out.insert_size = insert;
        }
    };

    for (const auto& m1 : mappings1) {
        for (const auto& m2 : mappings2) consider(m1, m2);
    }
    return found;
}

bool PairedMapper::rescue(const genomics::Read& mate,
                          const ReadMapping& anchor,
                          std::uint32_t anchor_len, std::uint32_t mate_len,
                          std::uint32_t delta, ReadMapping& out) const {
    const auto text_len = static_cast<std::uint32_t>(reference_->size());
    const std::uint32_t budget = delta + config_.rescue_delta_bonus;

    // Expected start range of the missing mate and its orientation. The
    // insert runs from the forward mate's start to the reverse mate's
    // end, so each branch mixes the two lengths differently.
    std::uint32_t lo, hi;
    genomics::Strand strand;
    if (anchor.strand == genomics::Strand::Forward) {
        // Missing mate sits to the right, reverse-oriented: insert =
        // mate_pos + mate_len - anchor_pos.
        if (config_.max_insert < mate_len) return false; // degenerate
        strand = genomics::Strand::Reverse;
        const std::uint32_t base = anchor.position + config_.min_insert;
        lo = base > mate_len ? base - mate_len : 0;
        hi = anchor.position + config_.max_insert - mate_len;
    } else {
        // Missing mate sits to the left, forward-oriented: insert =
        // anchor_pos + anchor_len - mate_pos.
        strand = genomics::Strand::Forward;
        lo = anchor.position + anchor_len >= config_.max_insert
                 ? anchor.position + anchor_len - config_.max_insert
                 : 0;
        hi = anchor.position + anchor_len >= config_.min_insert
                 ? anchor.position + anchor_len - config_.min_insert
                 : 0;
    }
    if (lo >= text_len) return false;
    hi = std::min(hi, text_len > mate_len ? text_len - mate_len : 0u);
    if (hi < lo) return false;

    const std::uint32_t win_lo = lo > budget ? lo - budget : 0;
    const std::uint32_t win_len = std::min<std::uint32_t>(
        hi - lo + mate_len + 2 * budget, text_len - win_lo);
    if (win_len < mate_len) return false;

    const std::vector<std::uint8_t> pattern =
        strand == genomics::Strand::Reverse ? mate.reverse_complement()
                                            : mate.codes;
    const auto window = reference_->sequence().extract(win_lo, win_len);
    const align::MyersMatcher matcher(pattern);
    const auto hit = matcher.best_in(window);
    if (hit.distance > budget) return false;

    out.position = win_lo + (hit.text_end > mate_len
                                 ? hit.text_end - mate_len
                                 : 0);
    out.edit_distance = static_cast<std::uint16_t>(hit.distance);
    out.strand = strand;
    return true;
}

PairedResult PairedMapper::map_pairs(const genomics::ReadBatch& first,
                                     const genomics::ReadBatch& second,
                                     std::uint32_t delta) {
    if (first.size() != second.size()) {
        throw std::invalid_argument(
            "map_pairs: mate batches must be parallel");
    }

    const MapResult r1 = single_->map(first, delta);
    const MapResult r2 = single_->map(second, delta);

    PairedResult result;
    result.mapping_seconds = r1.mapping_seconds + r2.mapping_seconds;
    result.staged = r1.bytes_staged() + r2.bytes_staged();
    result.drained = r1.bytes_drained() + r2.bytes_drained();
    result.pairs.resize(first.size());

    for (std::size_t i = 0; i < first.size(); ++i) {
        PairMapping& pair = result.pairs[i];
        const auto& mappings1 = r1.per_read[i];
        const auto& mappings2 = r2.per_read[i];
        const auto len1 =
            static_cast<std::uint32_t>(first.reads[i].length());
        const auto len2 =
            static_cast<std::uint32_t>(second.reads[i].length());

        if (!mappings1.empty() && !mappings2.empty()) {
            if (find_proper(mappings1, mappings2, len1, len2, pair)) {
                pair.classification = PairClass::Proper;
            } else {
                pair.classification = PairClass::Discordant;
                pair.mate1 = mappings1.front();
                pair.mate2 = mappings2.front();
            }
            continue;
        }
        if (mappings1.empty() && mappings2.empty()) {
            pair.classification = PairClass::BothUnmapped;
            continue;
        }

        // One mate mapped: try rescue around its best mapping.
        const bool first_mapped = !mappings1.empty();
        const auto& anchor_list = first_mapped ? mappings1 : mappings2;
        const auto best_anchor = std::min_element(
            anchor_list.begin(), anchor_list.end(),
            [](const ReadMapping& a, const ReadMapping& b) {
                return a.edit_distance < b.edit_distance;
            });
        ReadMapping rescued;
        if (config_.enable_rescue &&
            rescue(first_mapped ? second.reads[i] : first.reads[i],
                   *best_anchor, first_mapped ? len1 : len2,
                   first_mapped ? len2 : len1, delta, rescued)) {
            pair.classification = PairClass::Rescued;
            pair.mate1 = first_mapped ? *best_anchor : rescued;
            pair.mate2 = first_mapped ? rescued : *best_anchor;
            const bool mate1_fwd =
                pair.mate1.strand == genomics::Strand::Forward;
            const auto& fwd = mate1_fwd ? pair.mate1 : pair.mate2;
            const auto& rev = mate1_fwd ? pair.mate2 : pair.mate1;
            pair.insert_size = fr_insert(fwd.position, rev.position,
                                         mate1_fwd ? len2 : len1);
        } else {
            pair.classification = PairClass::OneMateUnmapped;
            (first_mapped ? pair.mate1 : pair.mate2) = *best_anchor;
        }
    }
    return result;
}

} // namespace repute::core
