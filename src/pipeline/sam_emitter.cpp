#include "pipeline/sam_emitter.hpp"

#include <charconv>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>

#include "core/cigar.hpp"
#include "util/packed_dna.hpp"

namespace repute::pipeline {

/// One SAM line's fields, the strings borrowed from per-read buffers so
/// a record costs no string copies.
struct SamEmitter::Line {
    std::string_view qname;
    std::uint16_t flag = 0;
    std::string_view rname = "*"; ///< stays '*' on unmapped records
    std::uint32_t pos = 0;
    std::string_view cigar = "*";
    std::string_view rnext = "*";
    std::uint32_t pnext = 0;
    std::int32_t tlen = 0;
    std::string_view seq = "*";
    std::uint32_t edit_distance = 0;
};

namespace {

template <typename T>
void append_number(std::string& out, T value) {
    char buf[16];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    out.append(buf, end);
}

/// SEQ as SAM §1.4 wants it: on a reverse-strand (0x10) record it is
/// the read's reverse complement, so it reads along the forward strand
/// like POS and the CIGAR. `codes` is the strand's code sequence.
void set_seq(std::string& seq, std::span<const std::uint8_t> codes) {
    seq.resize(codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
        seq[i] = util::code_to_base(codes[i]);
    }
}

} // namespace

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

void SamEmitter::write_record(std::string& out, const Line& line) {
    out.append(line.qname);
    out += '\t';
    append_number(out, line.flag);
    out += '\t';
    out.append(line.rname);
    out += '\t';
    append_number(out, line.pos);
    out.append("\t255\t");
    out.append(line.cigar);
    out += '\t';
    out.append(line.rnext);
    out += '\t';
    append_number(out, line.pnext);
    out += '\t';
    append_number(out, line.tlen);
    out += '\t';
    out.append(line.seq);
    out.append("\t*\tNM:i:");
    append_number(out, line.edit_distance);
    out += '\n';
    ++stats_.records;
}

void SamEmitter::emit_read(std::string& out,
                           const genomics::ReadBatch& batch,
                           std::size_t index,
                           const core::MapResult& result) {
    const auto& reference = multi_->concatenated();
    const auto& read = batch.reads[index];
    // The read's own length, not batch.read_length: bucketed batches
    // carry the class ceiling there (virtual padding), and boundary
    // checks must see the true footprint.
    const auto read_len = static_cast<std::uint32_t>(read.length());
    // SEQ in both orientations and the reverse-complement codes are
    // built at most once per read, whatever its record count.
    bool have_forward = false;
    bool have_reverse = false;
    std::size_t emitted = 0;
    for (const auto& m : result.per_read[index]) {
        if (!multi_->within_one_sequence(m.position, read_len)) {
            ++stats_.dropped_boundary;
            continue;
        }
        const bool reverse = m.strand == genomics::Strand::Reverse;
        if (reverse && !have_reverse) {
            read.reverse_complement(rc_codes_);
            set_seq(reverse_seq_, rc_codes_);
            have_reverse = true;
        } else if (!reverse && !have_forward) {
            set_seq(forward_seq_, read.codes);
            have_forward = true;
        }
        Line line;
        line.qname = read.name;
        line.seq = reverse ? reverse_seq_ : forward_seq_;
        line.edit_distance = m.edit_distance;
        if (reverse) line.flag |= genomics::SamRecord::kFlagReverse;
        if (emitted != 0) line.flag |= genomics::SamRecord::kFlagSecondary;
        std::uint32_t global_pos = m.position;
        std::optional<core::AnnotatedMapping> annotated;
        if (config_.cigar) {
            annotated = core::annotate_mapping(
                reference, read, m, config_.delta,
                reverse ? std::span<const std::uint8_t>(rc_codes_)
                        : std::span<const std::uint8_t>());
            if (!annotated.has_value()) {
                ++stats_.dropped_cigar;
                continue;
            }
            line.cigar = annotated->cigar;
            line.edit_distance = annotated->mapping.edit_distance;
            global_pos = annotated->precise_position;
        }
        const auto loc = multi_->resolve(global_pos);
        line.rname = multi_->sequence_name(loc.sequence_index);
        line.pos = loc.offset + 1;
        write_record(out, line);
        ++emitted;
    }
    if (emitted == 0) {
        Line line;
        line.qname = read.name;
        line.flag = genomics::SamRecord::kFlagUnmapped;
        write_record(out, line);
    }
    ++stats_.reads;
}

std::string SamEmitter::render_read(const genomics::ReadBatch& batch,
                                    std::size_t index,
                                    const core::MapResult& result) {
    line_buffer_.clear();
    emit_read(line_buffer_, batch, index, result);
    return line_buffer_;
}

namespace {

/// A mate's placement in per-sequence coordinates.
struct Placement {
    const core::ReadMapping* mapping;
    std::size_t sequence;
    std::uint32_t offset; ///< 0-based
};

} // namespace

void SamEmitter::emit_pair(std::string& out, const genomics::Read& read1,
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
    const genomics::Read* reads[2] = {&read1, &read2};
    for (int k = 0; k < 2; ++k) {
        const auto& own = placed[k];
        const auto& mate = placed[1 - k];
        const bool reverse =
            own && own->mapping->strand == genomics::Strand::Reverse;
        if (reverse) {
            reads[k]->reverse_complement(rc_codes_);
            set_seq(reverse_seq_, rc_codes_);
        } else {
            set_seq(forward_seq_, reads[k]->codes);
        }
        Line line;
        line.qname = reads[k]->name;
        line.seq = reverse ? reverse_seq_ : forward_seq_;
        line.flag = SamRecord::kFlagPaired |
                    (k == 0 ? SamRecord::kFlagFirstInPair
                            : SamRecord::kFlagSecondInPair);
        if (own) {
            line.rname = multi_->sequence_name(own->sequence);
            line.pos = own->offset + 1;
            line.edit_distance = own->mapping->edit_distance;
            if (reverse) line.flag |= SamRecord::kFlagReverse;
            if (proper) line.flag |= SamRecord::kFlagProperPair;
        } else {
            line.flag |= SamRecord::kFlagUnmapped;
        }
        if (mate) {
            if (mate->mapping->strand == genomics::Strand::Reverse) {
                line.flag |= SamRecord::kFlagMateReverse;
            }
            line.rnext = same_sequence
                             ? std::string_view("=")
                             : multi_->sequence_name(mate->sequence);
            line.pnext = mate->offset + 1;
            if (proper) {
                // Leftmost mate gets +TLEN, rightmost -TLEN.
                const auto span = static_cast<std::int32_t>(pair.insert_size);
                line.tlen = own->mapping->position <= mate->mapping->position
                                ? span
                                : -span;
            }
        } else {
            line.flag |= SamRecord::kFlagMateUnmapped;
        }
        write_record(out, line);
        ++stats_.reads;
    }
}

std::vector<std::string> SamEmitter::render_paired(
    const genomics::ReadBatch& first, const genomics::ReadBatch& second,
    const core::PairedResult& result) {
    std::vector<std::string> out;
    out.reserve(result.pairs.size());
    for (std::size_t i = 0; i < result.pairs.size(); ++i) {
        line_buffer_.clear();
        emit_pair(line_buffer_, first.reads[i], second.reads[i],
                  result.pairs[i]);
        out.push_back(line_buffer_);
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
