#include "genomics/fastx.hpp"

#include <fstream>
#include <stdexcept>

#include "util/gzip_stream.hpp"

namespace repute::genomics {

namespace {

std::string header_name(const std::string& line, std::size_t offset) {
    const std::size_t end = line.find_first_of(" \t", offset);
    return line.substr(offset,
                       end == std::string::npos ? end : end - offset);
}

} // namespace

std::vector<FastaRecord> read_fasta(std::istream& in) {
    FastxRecordStream stream(in, FastxFormat::Fasta);
    std::vector<FastaRecord> records;
    FastqRecord record;
    std::string error;
    while (true) {
        switch (stream.next(record, &error)) {
            case FastxRecordStream::Status::Record:
                records.push_back(
                    {std::move(record.name), std::move(record.sequence)});
                break;
            case FastxRecordStream::Status::Malformed:
                throw std::runtime_error(error);
            case FastxRecordStream::Status::End: return records;
        }
    }
}

std::vector<FastaRecord> read_fasta_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open file: " + path);
    return read_fasta(in);
}

void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t line_width) {
    for (const auto& r : records) {
        out << '>' << r.name << '\n';
        for (std::size_t i = 0; i < r.sequence.size(); i += line_width) {
            out << r.sequence.substr(i, line_width) << '\n';
        }
    }
}

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records) {
    for (const auto& r : records) {
        out << '@' << r.name << '\n'
            << r.sequence << "\n+\n"
            << r.quality << '\n';
    }
}

FastxRecordStream::FastxRecordStream(std::istream& in, FastxFormat format)
    : in_(&in), format_(format) {
    if (util::sniff_gzip_magic(in)) {
        // Throws the clear "rebuilt without zlib" error when the build
        // carries no zlib (see util::GzipInputStream).
        gz_ = std::make_unique<util::GzipInputStream>(in);
        in_ = &gz_->stream();
    }
}

FastxRecordStream::~FastxRecordStream() = default;

std::uint64_t FastxRecordStream::compressed_offset() const noexcept {
    return gz_ ? gz_->compressed_offset() : 0;
}

std::string FastxRecordStream::offset_suffix() const {
    if (gz_) {
        return " (at uncompressed byte " + std::to_string(record_offset_) +
               ", compressed byte <= " +
               std::to_string(compressed_offset()) + ")";
    }
    return " (at byte " + std::to_string(record_offset_) + ")";
}

bool FastxRecordStream::next_line(std::string& line) {
    if (has_pending_) {
        line = std::move(pending_);
        has_pending_ = false;
        line_offset_ = pending_offset_;
        return true;
    }
    while (true) {
        line_offset_ = next_offset_;
        if (!std::getline(*in_, line)) return false;
        // Count raw bytes consumed (CR included, before stripping; the
        // final line of a file without a trailing newline sets eofbit).
        next_offset_ += line.size() + (in_->eof() ? 0 : 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) return true; // blank lines are never records
    }
}

FastxRecordStream::Status FastxRecordStream::next(FastqRecord& out,
                                                  std::string* error) {
    if (format_ == FastxFormat::Auto) {
        std::string line;
        if (!next_line(line)) return Status::End;
        format_ = line[0] == '@' ? FastxFormat::Fastq : FastxFormat::Fasta;
        pending_ = std::move(line);
        has_pending_ = true;
        pending_offset_ = line_offset_;
    }
    const Status status = format_ == FastxFormat::Fasta
                              ? next_fasta(out, error)
                              : next_fastq(out, error);
    if (status != Status::End) ++records_seen_;
    return status;
}

FastxRecordStream::Status FastxRecordStream::next_fasta(
    FastqRecord& out, std::string* error) {
    std::string line;
    while (next_line(line)) {
        record_offset_ = line_offset_;
        if (line[0] == ';') continue; // legacy FASTA comment
        if (line[0] != '>') {
            if (error) {
                *error = "FASTA: sequence data before header: " + line +
                         offset_suffix();
            }
            return Status::Malformed; // consume the stray line, resync
        }
        out.name = header_name(line, 1);
        out.sequence.clear();
        out.quality.clear();
        while (next_line(line)) {
            if (line[0] == '>') { // next record: push back as lookahead
                pending_ = std::move(line);
                has_pending_ = true;
                pending_offset_ = line_offset_;
                break;
            }
            if (line[0] == ';') continue;
            out.sequence += line;
        }
        return Status::Record;
    }
    return Status::End;
}

FastxRecordStream::Status FastxRecordStream::next_fastq(
    FastqRecord& out, std::string* error) {
    std::string header;
    if (!next_line(header)) return Status::End;
    record_offset_ = line_offset_;
    if (header[0] != '@') {
        if (error) {
            *error = "FASTQ: expected '@', got: " + header +
                     offset_suffix();
        }
        return Status::Malformed; // consume one line, resync on next '@'
    }
    std::string seq, plus, qual;
    std::uint64_t plus_offset = 0;
    const auto read_plus = [&] {
        if (!next_line(plus)) return false;
        plus_offset = line_offset_;
        return true;
    };
    if (!next_line(seq) || !read_plus() || !next_line(qual)) {
        if (error) {
            *error = "FASTQ: truncated record: " + header +
                     offset_suffix();
        }
        return Status::Malformed;
    }
    if (plus.empty() || plus[0] != '+') {
        if (error) {
            *error = "FASTQ: missing '+' line in record: " + header +
                     offset_suffix();
        }
        // The '+' slot held something else — likely the start of the
        // next record; push it back so one bad record costs one record.
        pending_ = std::move(plus);
        has_pending_ = true;
        pending_offset_ = plus_offset;
        return Status::Malformed;
    }
    if (seq.size() != qual.size()) {
        if (error) {
            *error = "FASTQ: sequence/quality length mismatch in record: " +
                     header + offset_suffix();
        }
        return Status::Malformed;
    }
    out.name = header_name(header, 1);
    out.sequence = std::move(seq);
    out.quality = std::move(qual);
    return Status::Record;
}

} // namespace repute::genomics
