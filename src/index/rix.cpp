#include "index/rix.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "index/qgram_table.hpp"
#include "util/serialize.hpp"

namespace repute::index {

namespace {

using rix::Header;
using rix::Section;

std::uint64_t header_checksum(Header h) {
    h.header_checksum = 0;
    return util::fnv1a64(&h, sizeof(h));
}

std::size_t page_round(std::size_t bytes) {
    return (bytes + rix::kPageBytes - 1) & ~std::size_t{rix::kPageBytes - 1};
}

/// Serialized name blob: reference name first, then each sequence name
/// (u64 count, then u64 length + raw bytes per string).
std::vector<char> encode_names(const genomics::MultiReference& multi) {
    std::vector<char> blob;
    const auto put_u64 = [&blob](std::uint64_t v) {
        const auto* p = reinterpret_cast<const char*>(&v);
        blob.insert(blob.end(), p, p + sizeof(v));
    };
    const auto put_str = [&](const std::string& s) {
        put_u64(s.size());
        blob.insert(blob.end(), s.begin(), s.end());
    };
    put_u64(multi.sequence_count() + 1);
    put_str(multi.concatenated().name());
    for (std::size_t i = 0; i < multi.sequence_count(); ++i) {
        put_str(multi.sequence_name(i));
    }
    return blob;
}

/// Cursor over the mapped SeqNames blob; every read is bounds-checked
/// (the checksum has passed, but a hostile length field must still not
/// walk off the mapping).
struct BlobReader {
    const char* p;
    std::size_t left;

    std::uint64_t u64() {
        if (left < sizeof(std::uint64_t)) {
            throw std::runtime_error("rix: truncated name table");
        }
        std::uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        p += sizeof(v);
        left -= sizeof(v);
        return v;
    }
    std::string str() {
        const std::uint64_t len = u64();
        if (left < len) {
            throw std::runtime_error("rix: truncated name table");
        }
        std::string s(p, len);
        p += len;
        left -= len;
        return s;
    }
};

/// Shared magic/version/endian/page/checksum validation — the failure
/// modes and messages MappedIndex::open and rix::read_header agree on.
void validate_header(const Header& h, const std::string& path) {
    if (h.magic != rix::kMagic) {
        // The stream images start with their own magics; recognize them
        // so the error says "convert", not "corrupt".
        if (h.magic == 0x464D4932u || h.magic == 0x464D4958u) {
            throw std::runtime_error(
                "rix: " + path +
                " is a legacy FMI stream image, not a .rix container — "
                "regenerate it with `repute index build`");
        }
        throw std::runtime_error("rix: " + path +
                                 " is not a .rix container (bad magic)");
    }
    if (h.version != rix::kVersion) {
        throw std::runtime_error(
            "rix: " + path + " has unsupported version " +
            std::to_string(h.version) + " (expected " +
            std::to_string(rix::kVersion) + ")");
    }
    if (h.endian != rix::kEndianTag) {
        throw std::runtime_error(
            "rix: " + path +
            " was written on a foreign-endian machine — rebuild it here");
    }
    if (h.page_bytes != rix::kPageBytes) {
        throw std::runtime_error("rix: " + path +
                                 " has an unsupported page size");
    }
    if (h.header_checksum != header_checksum(h)) {
        throw std::runtime_error("rix: " + path +
                                 " header checksum mismatch (corrupt)");
    }
}

const char* const kSectionNames[rix::kSectionCount] = {
    "rank blocks", "SA mark bits",   "SA samples", "q-gram ranges",
    "ref words",   "sequence names", "sequence starts"};

/// A mapped container whose header and section bounds have passed but
/// whose section checksums have not been verified yet.
struct Unverified {
    util::MmapFile map;
    Header header;
};

/// Maps `path` and runs every check but the section checksums.
Unverified map_unverified(const std::string& path) {
    Unverified opened{util::MmapFile::open_readonly(path), {}};
    const util::MmapFile& map = opened.map;
    if (map.size() < sizeof(Header)) {
        throw std::runtime_error("rix: " + path +
                                 " is too small to be a .rix container");
    }
    Header& h = opened.header;
    std::memcpy(&h, map.data(), sizeof(h));

    validate_header(h, path);
    if (h.file_bytes != map.size()) {
        throw std::runtime_error("rix: " + path + " is truncated (" +
                                 std::to_string(map.size()) + " of " +
                                 std::to_string(h.file_bytes) + " bytes)");
    }
    for (std::uint32_t s = 0; s < rix::kSectionCount; ++s) {
        const Section& sec = h.sections[s];
        if (sec.offset % rix::kPageBytes != 0 ||
            sec.offset + sec.bytes > map.size() ||
            sec.offset + sec.bytes < sec.offset) {
            throw std::runtime_error(
                std::string("rix: section out of bounds (") +
                kSectionNames[s] + ")");
        }
    }
    return opened;
}

/// One section's FNV-1a check: which container and section it is, its
/// mapped bytes and the checksum the header promises.
struct ChecksumJob {
    const std::byte* data;
    std::uint64_t bytes;
    std::uint64_t expected;
    std::size_t container;
    std::uint32_t section;
};

/// Hashes every job on min(jobs, hardware threads) threads, largest
/// first so the longest chain starts at once, and returns the index of
/// the first failing job in list order (jobs.size() when all pass).
/// The threads only read the mapping and each writes its own verdict
/// slot, read after the joins, so the result does not depend on their
/// interleaving.
std::size_t first_bad_checksum(const std::vector<ChecksumJob>& jobs) {
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return jobs[a].bytes > jobs[b].bytes;
                     });
    std::vector<char> bad(jobs.size(), 0);
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (std::size_t k = next++; k < order.size(); k = next++) {
            const ChecksumJob& job = jobs[order[k]];
            bad[order[k]] =
                util::fnv1a64(job.data, job.bytes) != job.expected;
        }
    };

    const std::size_t threads = std::min<std::size_t>(
        jobs.size(), std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> helpers;
    try {
        for (std::size_t t = 1; t < threads; ++t) {
            helpers.emplace_back(drain);
        }
    } catch (const std::system_error&) {
        // Fewer threads than asked for: the ones running drain the
        // whole queue anyway.
    }
    drain();
    for (auto& helper : helpers) helper.join();
    return static_cast<std::size_t>(
        std::find(bad.begin(), bad.end(), 1) - bad.begin());
}

/// Runs `fn` and prepends `prefix` to any runtime_error it throws
/// (an empty prefix rethrows the error untouched).
template <typename Fn>
auto with_prefix(const std::string& prefix, Fn&& fn) {
    try {
        return fn();
    } catch (const std::runtime_error& e) {
        if (prefix.empty()) throw;
        throw std::runtime_error(prefix + e.what());
    }
}

} // namespace

namespace rix {

Header read_header(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("rix: cannot open " + path);
    }
    Header h;
    in.read(reinterpret_cast<char*>(&h), sizeof(h));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(h))) {
        throw std::runtime_error("rix: " + path +
                                 " is too small to be a .rix container");
    }
    validate_header(h, path);
    return h;
}

} // namespace rix

void write_rix(const std::string& path,
               const genomics::MultiReference& multi, const FmIndex& fm) {
    if (fm.size() != multi.concatenated().size()) {
        throw std::runtime_error(
            "rix: index and reference lengths disagree");
    }

    Header h;
    h.text_length = fm.size();
    h.c = fm.c_array();
    h.sentinel_row = fm.sentinel_row();
    h.sa_sample = fm.sa_sample();
    h.checkpoint_every = fm.checkpoint_every();
    h.qgram_length = fm.qgrams() ? fm.qgrams()->q() : 0;
    h.sequence_count = multi.sequence_count();

    const auto names = encode_names(multi);
    const auto qgram_ranges =
        fm.qgrams() ? fm.qgrams()->ranges()
                    : std::span<const FmIndex::Range>{};

    struct Payload {
        const void* data;
        std::size_t bytes;
    };
    const Payload payloads[rix::kSectionCount] = {
        {fm.rank_words().data(),
         fm.rank_words().size() * sizeof(std::uint64_t)},
        {fm.sampled_rows().words().data(),
         fm.sampled_rows().words().size() * sizeof(std::uint64_t)},
        {fm.sa_samples().data(),
         fm.sa_samples().size() * sizeof(std::uint32_t)},
        {qgram_ranges.data(),
         qgram_ranges.size() * sizeof(FmIndex::Range)},
        {multi.concatenated().sequence().words().data(),
         multi.concatenated().sequence().words().size() *
             sizeof(std::uint64_t)},
        {names.data(), names.size()},
        {multi.starts().data(),
         multi.starts().size() * sizeof(std::uint32_t)},
    };

    std::uint64_t offset = rix::kPageBytes; // header owns page 0
    for (std::uint32_t s = 0; s < rix::kSectionCount; ++s) {
        h.sections[s] = {offset, payloads[s].bytes,
                         util::fnv1a64(payloads[s].data,
                                       payloads[s].bytes)};
        offset += page_round(payloads[s].bytes);
    }
    h.file_bytes = offset;
    h.header_checksum = header_checksum(h);

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw std::runtime_error("rix: cannot open " + tmp +
                                     " for writing");
        }
        const std::vector<char> pad(rix::kPageBytes, 0);
        out.write(reinterpret_cast<const char*>(&h), sizeof(h));
        out.write(pad.data(),
                  static_cast<std::streamsize>(rix::kPageBytes - sizeof(h)));
        for (const auto& p : payloads) {
            if (p.bytes > 0) {
                out.write(static_cast<const char*>(p.data),
                          static_cast<std::streamsize>(p.bytes));
            }
            out.write(pad.data(), static_cast<std::streamsize>(
                                      page_round(p.bytes) - p.bytes));
        }
        if (!out) throw std::runtime_error("rix: short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("rix: cannot rename " + tmp + " to " +
                                 path);
    }
}

MappedIndex MappedIndex::open(const std::string& path) {
    return std::move(open_all({path}, {std::string{}}).front());
}

std::vector<MappedIndex> MappedIndex::open_all(
    const std::vector<std::string>& paths,
    const std::vector<std::string>& error_prefixes) {
    if (error_prefixes.size() != paths.size()) {
        throw std::invalid_argument(
            "rix: open_all wants one error prefix per path");
    }
    std::vector<Unverified> opened;
    opened.reserve(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        opened.push_back(with_prefix(
            error_prefixes[i], [&] { return map_unverified(paths[i]); }));
    }

    std::vector<ChecksumJob> jobs;
    for (std::size_t i = 0; i < opened.size(); ++i) {
        for (std::uint32_t s = 0; s < rix::kSectionCount; ++s) {
            const Section& sec = opened[i].header.sections[s];
            jobs.push_back({opened[i].map.data() + sec.offset, sec.bytes,
                            sec.checksum, i, s});
        }
    }
    const std::size_t bad = first_bad_checksum(jobs);
    if (bad < jobs.size()) {
        throw std::runtime_error(
            error_prefixes[jobs[bad].container] +
            "rix: checksum mismatch in section " +
            kSectionNames[jobs[bad].section] + " — the file is corrupt");
    }

    std::vector<MappedIndex> out;
    out.reserve(opened.size());
    for (std::size_t i = 0; i < opened.size(); ++i) {
        out.push_back(with_prefix(error_prefixes[i], [&] {
            return from_verified(std::move(opened[i].map),
                                 opened[i].header, paths[i]);
        }));
    }
    return out;
}

MappedIndex MappedIndex::from_verified(util::MmapFile map,
                                       const rix::Header& h,
                                       const std::string& path) {
    MappedIndex mi;
    mi.map_ = std::move(map);
    mi.path_ = path;

    const auto span_u64 = [&](rix::SectionId s) {
        const Section& sec = h.sections[s];
        return mi.map_.view<std::uint64_t>(
            sec.offset, sec.bytes / sizeof(std::uint64_t));
    };
    const auto span_u32 = [&](rix::SectionId s) {
        const Section& sec = h.sections[s];
        return mi.map_.view<std::uint32_t>(
            sec.offset, sec.bytes / sizeof(std::uint32_t));
    };

    FmIndex::ViewGeometry g;
    g.n = h.text_length;
    g.c = h.c;
    g.sentinel_row = h.sentinel_row;
    g.sa_sample = h.sa_sample;
    g.checkpoint_every = h.checkpoint_every;
    g.qgram_length = h.qgram_length;
    const Section& qsec = h.sections[rix::kQgramRanges];
    const auto qgram_ranges = mi.map_.view<FmIndex::Range>(
        qsec.offset, qsec.bytes / sizeof(FmIndex::Range));
    mi.fm_ = std::make_unique<FmIndex>(FmIndex::from_view(
        g, span_u64(rix::kRankBlocks), span_u64(rix::kSaMarkBits),
        span_u32(rix::kSaSamples), qgram_ranges,
        span_u64(rix::kRefWords)));

    const Section& nsec = h.sections[rix::kSeqNames];
    BlobReader names_in{
        reinterpret_cast<const char*>(mi.map_.data() + nsec.offset),
        static_cast<std::size_t>(nsec.bytes)};
    const std::uint64_t name_count = names_in.u64();
    if (name_count != h.sequence_count + 1) {
        throw std::runtime_error("rix: sequence-name count mismatch");
    }
    std::string ref_name = names_in.str();
    std::vector<std::string> names;
    names.reserve(h.sequence_count);
    for (std::uint64_t i = 0; i < h.sequence_count; ++i) {
        names.push_back(names_in.str());
    }

    const auto starts_span = span_u32(rix::kSeqStarts);
    std::vector<std::uint32_t> starts(starts_span.begin(),
                                      starts_span.end());

    genomics::Reference reference(
        std::move(ref_name),
        util::PackedDna::view_of(span_u64(rix::kRefWords),
                                 h.text_length));
    mi.multi_ = std::make_unique<genomics::MultiReference>(
        std::move(reference), std::move(names), std::move(starts));
    return mi;
}

std::size_t MappedIndex::resident_bytes() const noexcept {
    std::size_t names_bytes = 0;
    for (std::size_t i = 0; i < multi_->sequence_count(); ++i) {
        names_bytes += multi_->sequence_name(i).size();
    }
    return fm_->resident_bytes() + names_bytes +
           multi_->starts().size() * sizeof(std::uint32_t);
}

} // namespace repute::index
