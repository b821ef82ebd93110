#include "pipeline/sam_emitter.hpp"

#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/cigar.hpp"

namespace repute::pipeline {

SamEmitter::SamEmitter(std::ostream& out,
                       const genomics::MultiReference& multi,
                       SamEmitterConfig config)
    : out_(&out), multi_(&multi), config_(config) {}

void SamEmitter::write_header() {
    *out_ << "@HD\tVN:1.6\tSO:unknown\n";
    for (std::size_t s = 0; s < multi_->sequence_count(); ++s) {
        *out_ << "@SQ\tSN:" << multi_->sequence_name(s)
              << "\tLN:" << multi_->sequence_length(s) << '\n';
    }
    *out_ << "@PG\tID:repute\tPN:repute\tVN:1.0.0\n";
}

void SamEmitter::write_record(std::ostream& out,
                              const genomics::SamRecord& rec) {
    out << rec.qname << '\t' << rec.flag << '\t'
        << (rec.unmapped() ? "*" : rec.rname) << '\t' << rec.pos << '\t'
        << static_cast<unsigned>(rec.mapq) << '\t' << rec.cigar << '\t'
        << rec.rnext << '\t' << rec.pnext << '\t' << rec.tlen << '\t'
        << rec.seq << "\t*\tNM:i:" << rec.edit_distance << '\n';
    ++stats_.records;
}

void SamEmitter::emit_read(std::ostream& out,
                           const genomics::ReadBatch& batch,
                           std::size_t index,
                           const core::MapResult& result) {
    const auto& reference = multi_->concatenated();
    const auto& read = batch.reads[index];
    // The read's own length, not batch.read_length: bucketed batches
    // carry the class ceiling there (virtual padding), and boundary
    // checks must see the true footprint.
    const auto read_len = static_cast<std::uint32_t>(read.length());
    std::size_t emitted = 0;
    bool first = true;
    for (const auto& m : result.per_read[index]) {
        if (!multi_->within_one_sequence(m.position, read_len)) {
            ++stats_.dropped_boundary;
            continue;
        }
        genomics::SamRecord rec;
        rec.qname = read.name;
        rec.seq = read.to_string();
        rec.edit_distance = m.edit_distance;
        if (m.strand == genomics::Strand::Reverse) {
            rec.flag |= genomics::SamRecord::kFlagReverse;
        }
        if (!first) rec.flag |= genomics::SamRecord::kFlagSecondary;
        std::uint32_t global_pos = m.position;
        if (config_.cigar) {
            const auto annotated = core::annotate_mapping(
                reference, read, m, config_.delta);
            if (!annotated.has_value()) {
                ++stats_.dropped_cigar;
                continue;
            }
            rec.cigar = annotated->cigar;
            rec.edit_distance = annotated->mapping.edit_distance;
            global_pos = annotated->precise_position;
        }
        const auto loc = multi_->resolve(global_pos);
        rec.rname = multi_->sequence_name(loc.sequence_index);
        rec.pos = loc.offset + 1;
        write_record(out, rec);
        first = false;
        ++emitted;
    }
    if (emitted == 0) {
        genomics::SamRecord rec;
        rec.qname = read.name;
        rec.flag = genomics::SamRecord::kFlagUnmapped;
        write_record(out, rec);
    }
    ++stats_.reads;
}

void SamEmitter::emit(const genomics::ReadBatch& batch,
                      const core::MapResult& result) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
        emit_read(*out_, batch, i, result);
    }
}

std::string SamEmitter::render_read(const genomics::ReadBatch& batch,
                                    std::size_t index,
                                    const core::MapResult& result) {
    std::ostringstream buf;
    emit_read(buf, batch, index, result);
    return std::move(buf).str();
}

namespace {

/// A mate's placement in per-sequence coordinates.
struct Placement {
    const core::ReadMapping* mapping;
    std::size_t sequence;
    std::uint32_t offset; ///< 0-based
};

} // namespace

void SamEmitter::emit_pair(std::ostream& out, const genomics::Read& read1,
                           const genomics::Read& read2,
                           const core::PairMapping& pair) {
    using genomics::SamRecord;
    bool mapped1 = false, mapped2 = false;
    switch (pair.classification) {
        case core::PairClass::Proper:
        case core::PairClass::Rescued:
        case core::PairClass::Discordant: mapped1 = mapped2 = true; break;
        case core::PairClass::OneMateUnmapped:
            // Only the mapped side was filled; the other mate reads as a
            // value-initialized ReadMapping.
            mapped1 = !(pair.mate1 == core::ReadMapping{});
            mapped2 = !(pair.mate2 == core::ReadMapping{});
            break;
        case core::PairClass::BothUnmapped: break;
    }
    // Resolve both placements before writing either record: the mate
    // fields of one record depend on where the other one landed.
    const auto place = [&](const genomics::Read& read,
                           const core::ReadMapping& m,
                           bool mapped) -> std::optional<Placement> {
        if (!mapped) return std::nullopt;
        if (!multi_->within_one_sequence(
                m.position, static_cast<std::uint32_t>(read.length()))) {
            ++stats_.dropped_boundary;
            return std::nullopt;
        }
        const auto loc = multi_->resolve(m.position);
        return Placement{&m, loc.sequence_index, loc.offset};
    };
    const std::optional<Placement> placed[2] = {
        place(read1, pair.mate1, mapped1), place(read2, pair.mate2, mapped2)};
    const bool same_sequence =
        placed[0] && placed[1] && placed[0]->sequence == placed[1]->sequence;
    const bool proper =
        same_sequence && (pair.classification == core::PairClass::Proper ||
                          pair.classification == core::PairClass::Rescued);
    // String (not literal) source: assigning "=" directly trips GCC 12's
    // -Wrestrict false positive.
    static const std::string kSame = "=";

    const genomics::Read* reads[2] = {&read1, &read2};
    for (int k = 0; k < 2; ++k) {
        const auto& own = placed[k];
        const auto& mate = placed[1 - k];
        SamRecord rec;
        rec.qname = reads[k]->name;
        rec.seq = reads[k]->to_string();
        rec.flag = SamRecord::kFlagPaired |
                   (k == 0 ? SamRecord::kFlagFirstInPair
                           : SamRecord::kFlagSecondInPair);
        if (own) {
            rec.rname = multi_->sequence_name(own->sequence);
            rec.pos = own->offset + 1;
            rec.edit_distance = own->mapping->edit_distance;
            if (own->mapping->strand == genomics::Strand::Reverse) {
                rec.flag |= SamRecord::kFlagReverse;
            }
            if (proper) rec.flag |= SamRecord::kFlagProperPair;
        } else {
            rec.flag |= SamRecord::kFlagUnmapped;
        }
        if (mate) {
            if (mate->mapping->strand == genomics::Strand::Reverse) {
                rec.flag |= SamRecord::kFlagMateReverse;
            }
            rec.rnext =
                same_sequence ? kSame : multi_->sequence_name(mate->sequence);
            rec.pnext = mate->offset + 1;
            if (proper) {
                // Leftmost mate gets +TLEN, rightmost -TLEN.
                const auto span = static_cast<std::int32_t>(pair.insert_size);
                rec.tlen = own->mapping->position <= mate->mapping->position
                               ? span
                               : -span;
            }
        } else {
            rec.flag |= SamRecord::kFlagMateUnmapped;
        }
        write_record(out, rec);
        ++stats_.reads;
    }
}

void SamEmitter::emit_paired(const genomics::ReadBatch& first,
                             const genomics::ReadBatch& second,
                             const core::PairedResult& result) {
    for (const auto& pair : render_paired(first, second, result)) {
        *out_ << pair;
    }
}

std::vector<std::string> SamEmitter::render_paired(
    const genomics::ReadBatch& first, const genomics::ReadBatch& second,
    const core::PairedResult& result) {
    std::vector<std::string> out;
    out.reserve(result.pairs.size());
    for (std::size_t i = 0; i < result.pairs.size(); ++i) {
        std::ostringstream buf;
        emit_pair(buf, first.reads[i], second.reads[i], result.pairs[i]);
        out.push_back(std::move(buf).str());
    }
    return out;
}

void RecordReorderWriter::add(std::uint64_t ordinal, std::string bytes) {
    parked_.emplace(ordinal, std::move(bytes));
    if (parked_.size() > max_parked_) max_parked_ = parked_.size();
    while (!parked_.empty() && parked_.begin()->first == next_) {
        *out_ << parked_.begin()->second;
        parked_.erase(parked_.begin());
        ++next_;
    }
}

void RecordReorderWriter::finish() {
    if (!parked_.empty()) {
        throw std::logic_error(
            "RecordReorderWriter: " + std::to_string(parked_.size()) +
            " record(s) still parked at finish (ordinal gap at " +
            std::to_string(next_) + ")");
    }
}

} // namespace repute::pipeline
