#pragma once
// Streaming SAM emission — the output stage of the batch pipeline and
// the only SAM writer in the tool.
//
// One SamEmitter serves one run: write_header() writes the header to
// its output stream, and render_read()/render_paired() format each
// read's (or pair's) records, which the caller writes in input order
// (the streaming path through RecordReorderWriter). The record
// formatting is the single source of truth for every caller —
// the streaming CLI, the daemon, the benches and the tests — which is
// what makes "streaming output is byte-identical to one big batch" a
// testable property rather than a hope.
//
// Coordinates: mapping positions are on the concatenated multi-sequence
// text; the emitter resolves them back to (sequence name, 1-based
// offset) and drops mappings whose window straddles a sequence
// boundary. With cigar enabled (the default) each single-end mapping is
// re-aligned host-side for a precise position and CIGAR string
// (core::annotate_mapping); mappings the re-alignment cannot confirm
// are dropped and counted.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "core/paired.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/sam_lite.hpp"

namespace repute::pipeline {

struct SamEmitterConfig {
    bool cigar = true;      ///< host-side re-alignment per mapping
    std::uint32_t delta = 5; ///< edit budget the mappings were made at
};

class SamEmitter {
public:
    struct Stats {
        std::size_t records = 0;          ///< SAM lines rendered
        std::size_t reads = 0;            ///< reads (or mates) covered
        std::size_t dropped_boundary = 0; ///< straddled a sequence join
        std::size_t dropped_cigar = 0;    ///< re-alignment disagreed
    };

    /// `out` and `multi` must outlive the emitter.
    SamEmitter(std::ostream& out, const genomics::MultiReference& multi,
               SamEmitterConfig config);

    /// @HD / @SQ (one per sequence) / @PG lines.
    void write_header();

    /// One read's SAM records: at least one per read (an unmapped read
    /// gets a flag-0x4 placeholder); the first reported mapping is
    /// primary, the rest are flagged secondary. Boundary checks use the
    /// read's own length, so mixed-length (bucketed) batches render
    /// identically to uniform ones.
    ///
    /// render_paired: two records per pair (first mate, then second),
    /// one string per pair. Both placements are resolved to
    /// per-sequence coordinates before either record is formatted; a
    /// mate whose placement straddles a sequence boundary is demoted to
    /// unmapped. 0x8 marks an unmapped mate and 0x20 a mapped reverse
    /// one; RNEXT is '=' only when both mates sit on the same sequence,
    /// else the mate's sequence name ('*' when the mate is unmapped);
    /// 0x2 and TLEN need both mates on one sequence and a Proper or
    /// Rescued pair.
    ///
    /// Both return the bytes instead of writing them, and update
    /// stats(): the streaming path reorders per-read strings by global
    /// input ordinal before they reach the output stream.
    std::string render_read(const genomics::ReadBatch& batch,
                            std::size_t index,
                            const core::MapResult& result);
    std::vector<std::string> render_paired(
        const genomics::ReadBatch& first,
        const genomics::ReadBatch& second,
        const core::PairedResult& result);

    const Stats& stats() const noexcept { return stats_; }

private:
    struct Line;
    void write_record(std::string& out, const Line& line);
    void emit_read(std::string& out, const genomics::ReadBatch& batch,
                   std::size_t index, const core::MapResult& result);
    void emit_pair(std::string& out, const genomics::Read& read1,
                   const genomics::Read& read2,
                   const core::PairMapping& pair);

    std::ostream* out_;
    const genomics::MultiReference* multi_;
    SamEmitterConfig config_;
    Stats stats_;
    // Render scratch reused across reads: the records of one read (or
    // pair), its SEQ in each orientation and its reverse complement.
    std::string line_buffer_;
    std::string forward_seq_;
    std::string reverse_seq_;
    std::vector<std::uint8_t> rc_codes_;
};

/// Restores input order over per-record SAM strings produced out of
/// order (interleaved length-class buckets, batches completing out of
/// order on the map workers) — the streaming path's only ordering
/// buffer: add() parks a record under
/// its dense global ordinal and flushes the contiguous run starting at
/// the next unwritten ordinal. finish() asserts nothing is left parked
/// (a gap means an ordinal was never produced).
class RecordReorderWriter {
public:
    explicit RecordReorderWriter(std::ostream& out) : out_(&out) {}

    void add(std::uint64_t ordinal, std::string bytes);
    /// Throws std::logic_error if records are still parked.
    void finish();

    std::size_t max_parked() const noexcept { return max_parked_; }

private:
    std::ostream* out_;
    std::map<std::uint64_t, std::string> parked_;
    std::uint64_t next_ = 0;
    std::size_t max_parked_ = 0;
};

} // namespace repute::pipeline
