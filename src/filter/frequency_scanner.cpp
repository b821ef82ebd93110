#include "filter/frequency_scanner.hpp"

#include <algorithm>
#include <stdexcept>

#include "index/qgram_table.hpp"

namespace repute::filter {

FrequencyScanner::FrequencyScanner(const index::FmIndex& fm,
                                   std::span<const std::uint8_t> read)
    : fm_(&fm), read_(read) {
    if (read.size() > kMaxReadLength) {
        throw std::invalid_argument("read exceeds kernel limit 512");
    }
    util::pack_codes(read, read_words_.data());
}

std::uint32_t FrequencyScanner::match_down(std::uint32_t d, std::uint32_t t,
                                           std::uint32_t lo,
                                           ScanWork& work) const {
    const std::span<const std::uint64_t> read_words(
        read_words_.data(), util::PackedDna::packed_word_count(read_.size()));
    const std::uint32_t limit = std::min(d - lo, t);
    return d - static_cast<std::uint32_t>(util::common_suffix(
                   fm_->text().words(), t, read_words, d, limit,
                   work.text_words));
}

std::uint32_t FrequencyScanner::unique_reach(std::uint32_t d,
                                             std::uint32_t row,
                                             std::uint32_t lo,
                                             ScanWork& work) const {
    ++work.anchor_locates;
    return match_down(d, fm_->locate(row), lo, work);
}

void FrequencyScanner::suffix_frequencies(std::uint32_t min_start,
                                          std::uint32_t end,
                                          std::span<std::uint32_t> out,
                                          ScanWork& work,
                                          std::uint32_t min_length) {
    // Carry the anchor to this end: its occurrence is the only place
    // read[anchor.start, end) can occur, and it does iff the text after
    // it spells read[anchor.end, end).
    Anchor& a = anchor_;
    if (a.valid) {
        const std::uint64_t text_end =
            std::uint64_t{a.pos} + (end - a.start);
        a.valid = end >= a.end && text_end <= fm_->size() &&
                  (end == a.end ||
                   match_down(end, static_cast<std::uint32_t>(text_end),
                              a.end, work) == a.end);
        a.end = end;
    }

    // Table lookups up to length q (one jump straight to the shortest
    // reported length), then extends, until the range holds at most
    // one row. An absent pattern yields the canonical empty range
    // {0, 0}: count 0, as the extend() chain would report.
    auto range = fm_->whole_range();
    const index::QGramTable* qt = fm_->qgrams();
    const std::uint32_t direct =
        qt != nullptr ? std::min(end - min_start, qt->q()) : 0;
    const std::uint32_t first_jump = std::min(direct, min_length);
    std::uint64_t idx = 0;
    std::uint32_t d = end;
    while (d > min_start) {
        --d;
        const std::uint32_t len = end - d;
        if (len <= direct) {
            idx |= static_cast<std::uint64_t>(read_[d]) << (2 * (len - 1));
            if (len < first_jump) continue;
            range = qt->lookup(len, idx);
            ++work.qgram_jumps;
        } else {
            range = fm_->extend(range, read_[d]);
            ++work.fm_extends;
        }
        if (len >= min_length) out[d - min_start] = range.count();
        if (range.count() <= 1) break;
    }
    if (range.count() > 1) return; // a live anchor stays live
    const auto settled = out.first(d - min_start);
    if (range.empty()) {
        std::fill(settled.begin(), settled.end(), 0u);
        a.valid = false;
        return;
    }
    // Nothing left to settle: not worth a locate.
    if (!a.valid && d == min_start) return;

    // read[d, end) occurs once. A live anchor already knows where: both
    // suffixes of read[.., end) occur once, so they share the anchor's
    // occurrence (d usually sits at or right of the anchor's start; a
    // q-gram jump deeper than an earlier call's can land left of it, and
    // the offsets below then wrap, which unsigned arithmetic keeps
    // exact). It also knows how far left the occurrence matches.
    std::uint32_t t = 0, reach = d;
    bool exact = false;
    if (a.valid) {
        t = a.pos + (d - a.start);
        reach = a.reach;
        exact = a.exact;
    } else {
        t = fm_->locate(range.lo);
        ++work.anchor_locates;
    }
    if (!exact && reach > min_start) {
        const std::uint32_t matched_to =
            match_down(reach, t - (d - reach), min_start, work);
        // Stopped short of min_start: a mismatch or the text start.
        exact = matched_to > min_start;
        reach = matched_to;
    }
    const std::uint32_t ones = d - std::max(reach, min_start);
    std::fill(settled.begin(), settled.end() - ones, 0u);
    std::fill(settled.end() - ones, settled.end(), 1u);
    work.text_settled += settled.size();
    a = {true, end, d, t, reach, exact};
}

std::uint32_t FrequencyScanner::frequency(std::uint32_t start,
                                          std::uint32_t end,
                                          std::uint64_t* fm_extends,
                                          std::uint64_t* qgram_jumps) const {
    auto range = fm_->whole_range();
    std::uint32_t d = end;
    const index::QGramTable* qt = fm_->qgrams();
    if (qt != nullptr && end > start) {
        const std::uint32_t jump = std::min(end - start, qt->q());
        range = qt->lookup(read_.subspan(end - jump, jump));
        d = end - jump;
        if (qgram_jumps) ++*qgram_jumps;
    }
    for (; d-- > start && !range.empty();) {
        range = fm_->extend(range, read_[d]);
        if (fm_extends) ++*fm_extends;
    }
    return range.count();
}

} // namespace repute::filter
