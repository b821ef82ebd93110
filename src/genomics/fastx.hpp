#pragma once
// FASTA / FASTQ parsing and writing.
//
// FastxRecordStream is the only parser: a record-at-a-time scanner for
// multi-line FASTA records and 4-line FASTQ records. Reads reach the
// mapper through it (pipeline::StreamingFastxReader buckets its
// records), and read_fasta() is a loop over it for callers that need a
// whole reference in memory (`repute index build`, building a session
// from FASTA). The writers persist simulated datasets for cross-tool
// comparison and benchmark inputs.
//
// The stream sniffs the gzip magic at its input's current position and
// transparently inflates compressed input (util::GzipInputStream), so
// `.gz` files flow through the same parser as plain text — from CLI
// files, daemon request blobs, or any istream. Builds without zlib
// (-DREPUTE_ZLIB=OFF) reject gzip input with a clear error instead.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace repute::util {
class GzipInputStream;
} // namespace repute::util

namespace repute::genomics {

struct FastaRecord {
    std::string name;     ///< header without '>' up to first whitespace
    std::string sequence; ///< raw ASCII bases
};

/// Parses all records from a FASTA stream through FastxRecordStream;
/// throws the stream's malformed-record error (std::runtime_error, e.g.
/// sequence data before any header).
std::vector<FastaRecord> read_fasta(std::istream& in);
std::vector<FastaRecord> read_fasta_file(const std::string& path);

/// Writes records wrapped at `line_width` columns.
void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t line_width = 70);

struct FastqRecord {
    std::string name;
    std::string sequence;
    std::string quality; ///< same length as sequence
};

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records);

enum class FastxFormat { Auto, Fasta, Fastq };

/// Record-at-a-time FASTA/FASTQ scanner. Instead of throwing on a
/// structurally malformed record it reports Status::Malformed for that
/// record and resynchronizes on the next plausible record start, so a
/// caller can implement a per-record error policy (drop-and-count or
/// fail-fast) without losing the rest of the file. FASTA records come
/// back as FastqRecords with an empty quality string.
class FastxRecordStream {
public:
    enum class Status {
        Record,    ///< `out` holds the next well-formed record
        Malformed, ///< record skipped; `error` describes why
        End,       ///< stream exhausted
    };

    /// The stream must outlive the scanner. With FastxFormat::Auto the
    /// format is resolved from the first record marker ('>' vs '@').
    /// Gzip-compressed input (magic 0x1f 0x8b at the current position)
    /// is inflated transparently; throws std::runtime_error when the
    /// build carries no zlib.
    explicit FastxRecordStream(std::istream& in,
                               FastxFormat format = FastxFormat::Auto);
    ~FastxRecordStream();

    Status next(FastqRecord& out, std::string* error = nullptr);

    /// Resolved format (Auto until the first marker has been seen).
    FastxFormat format() const noexcept { return format_; }

    /// Records consumed so far, malformed ones included (1-based ordinal
    /// of the most recently returned record).
    std::size_t records_seen() const noexcept { return records_seen_; }

    /// True when the underlying input is gzip-compressed.
    bool compressed() const noexcept { return gz_ != nullptr; }

    /// Uncompressed byte offset of the most recent record's first line
    /// — where malformed-record errors point.
    std::uint64_t record_offset() const noexcept { return record_offset_; }

    /// Compressed-file byte offset consumed so far (upper bound on the
    /// current record's position in the .gz file); 0 for plain input.
    std::uint64_t compressed_offset() const noexcept;

private:
    bool next_line(std::string& line);
    Status next_fasta(FastqRecord& out, std::string* error);
    Status next_fastq(FastqRecord& out, std::string* error);
    /// " (at byte N)" / " (at uncompressed byte N, compressed byte
    /// <= M)" — appended to every malformed-record error.
    std::string offset_suffix() const;

    std::istream* in_;
    std::unique_ptr<util::GzipInputStream> gz_; ///< set for .gz input
    FastxFormat format_;
    std::string pending_; ///< one-line lookahead (FASTA record boundary)
    bool has_pending_ = false;
    std::size_t records_seen_ = 0;
    std::uint64_t next_offset_ = 0;    ///< uncompressed cursor
    std::uint64_t line_offset_ = 0;    ///< start of the last line read
    std::uint64_t pending_offset_ = 0; ///< start of the pushed-back line
    std::uint64_t record_offset_ = 0;  ///< start of the current record
};

} // namespace repute::genomics
