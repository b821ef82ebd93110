#include "index/rixm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "index/fm_index.hpp"
#include "util/packed_dna.hpp"
#include "util/threadpool.hpp"

namespace repute::index {

namespace {

constexpr std::string_view kMagicLine = "RIXM";

std::string manifest_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string{}
                                      : path.substr(0, slash + 1);
}

std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// manifest stem: path minus a trailing ".rixm" (kept whole otherwise).
std::string manifest_stem(const std::string& path) {
    constexpr std::string_view ext = ".rixm";
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
        return path.substr(0, path.size() - ext.size());
    }
    return path;
}

[[noreturn]] void malformed(const std::string& path,
                            const std::string& detail) {
    throw std::runtime_error("rixm: " + path + ": malformed manifest (" +
                             detail + ")");
}

/// Splits one manifest line on tabs.
std::vector<std::string> fields_of(const std::string& line) {
    std::vector<std::string> fields;
    std::size_t from = 0;
    while (true) {
        const std::size_t tab = line.find('\t', from);
        if (tab == std::string::npos) {
            fields.push_back(line.substr(from));
            return fields;
        }
        fields.push_back(line.substr(from, tab - from));
        from = tab + 1;
    }
}

std::uint64_t parse_u64(const std::string& path, const std::string& s) {
    try {
        std::size_t used = 0;
        const std::uint64_t v = std::stoull(s, &used);
        if (used != s.size()) malformed(path, "bad number '" + s + "'");
        return v;
    } catch (const std::invalid_argument&) {
        malformed(path, "bad number '" + s + "'");
    } catch (const std::out_of_range&) {
        malformed(path, "bad number '" + s + "'");
    }
}

std::string hex_of(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// ORs bases [from, from + len) of `src` into the zeroed packed
/// buffer `dst` at base offset `at`: extract_words aligns each chunk
/// to a word boundary, then a shift/OR places it, 32 bases per step.
void splice_words(const util::PackedDna& src, std::size_t from,
                  std::size_t len, std::size_t at,
                  std::vector<std::uint64_t>& dst) {
    constexpr std::size_t kChunkWords = 512;
    constexpr std::size_t kChunkBases = kChunkWords * 32;
    std::uint64_t chunk[kChunkWords];
    const unsigned shift = static_cast<unsigned>(at & 31) * 2;
    for (std::size_t done = 0; done < len; done += kChunkBases) {
        const std::size_t n = std::min(kChunkBases, len - done);
        src.extract_words(from + done, n, chunk);
        // Chunks are whole words long, so every chunk keeps `shift`.
        const std::size_t w0 = (at + done) >> 5;
        for (std::size_t w = 0; w < util::PackedDna::packed_word_count(n);
             ++w) {
            dst[w0 + w] |= chunk[w] << shift;
            if (shift != 0 && w0 + w + 1 < dst.size()) {
                dst[w0 + w + 1] |= chunk[w] >> (64 - shift);
            }
        }
    }
}

} // namespace

bool is_rixm_manifest(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    char head[5] = {};
    in.read(head, sizeof(head));
    return in.gcount() >= 4 &&
           std::string_view(head, 4) == kMagicLine &&
           (in.gcount() == 4 || head[4] == '\t' || head[4] == '\n');
}

ShardedIndex ShardedIndex::open(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("rixm: cannot open " + path);
    }

    std::vector<std::vector<std::string>> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        lines.push_back(fields_of(line));
    }
    if (lines.empty() || lines[0].empty() || lines[0][0] != kMagicLine) {
        malformed(path, "missing RIXM magic line");
    }
    if (lines[0].size() != 2) malformed(path, "bad magic line");
    const std::uint64_t version = parse_u64(path, lines[0][1]);
    if (version != rixm::kVersion) {
        throw std::runtime_error(
            "rixm: " + path + " has unsupported manifest version " +
            std::to_string(version) + " (expected " +
            std::to_string(rixm::kVersion) + ")");
    }

    ShardedIndex si;
    si.path_ = path;
    std::string combined_name;
    std::vector<std::string> names;
    std::vector<std::uint32_t> starts{0};
    struct ShardLine {
        std::string rel;
        std::uint32_t text_offset, left, owned, right;
        std::uint64_t checksum;
    };
    std::vector<ShardLine> shard_lines;
    std::size_t expect_sequences = 0, expect_shards = 0;

    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto& f = lines[i];
        if (f[0] == "name" && f.size() == 2) {
            combined_name = f[1];
        } else if (f[0] == "overlap" && f.size() == 2) {
            si.overlap_ = static_cast<std::uint32_t>(parse_u64(path, f[1]));
        } else if (f[0] == "sequences" && f.size() == 2) {
            expect_sequences = parse_u64(path, f[1]);
        } else if (f[0] == "seq" && f.size() == 3) {
            names.push_back(f[1]);
            const std::uint64_t len = parse_u64(path, f[2]);
            if (len == 0) malformed(path, "empty sequence " + f[1]);
            starts.push_back(starts.back() +
                             static_cast<std::uint32_t>(len));
        } else if (f[0] == "shards" && f.size() == 2) {
            expect_shards = parse_u64(path, f[1]);
        } else if (f[0] == "shard" && f.size() == 8) {
            if (parse_u64(path, f[1]) != shard_lines.size()) {
                malformed(path, "shard lines out of order");
            }
            ShardLine s;
            s.rel = f[2];
            s.text_offset =
                static_cast<std::uint32_t>(parse_u64(path, f[3]));
            s.left = static_cast<std::uint32_t>(parse_u64(path, f[4]));
            s.owned = static_cast<std::uint32_t>(parse_u64(path, f[5]));
            s.right = static_cast<std::uint32_t>(parse_u64(path, f[6]));
            s.checksum = std::stoull(f[7], nullptr, 16);
            shard_lines.push_back(std::move(s));
        } else {
            malformed(path, "unrecognized line '" + f[0] + "'");
        }
    }
    if (names.empty() || names.size() != expect_sequences) {
        malformed(path, "sequence count mismatch");
    }
    if (shard_lines.empty() || shard_lines.size() != expect_shards) {
        malformed(path, "shard count mismatch");
    }
    const std::uint32_t total = starts.back();
    std::uint32_t cursor = 0;
    for (const ShardLine& s : shard_lines) {
        if (s.text_offset + s.left != cursor || s.owned == 0) {
            malformed(path, "shard owned ranges do not tile the text");
        }
        cursor += s.owned;
    }
    if (cursor != total) {
        malformed(path, "shard owned ranges do not cover the text");
    }

    // The cheap checks of every shard first: file present, header
    // valid and pinned by the manifest. Then one concurrent checksum
    // pass over all shards' sections.
    const std::string dir = manifest_dir(path);
    std::vector<std::string> shard_paths, contexts;
    for (std::size_t i = 0; i < shard_lines.size(); ++i) {
        const ShardLine& sl = shard_lines[i];
        const std::string shard_path =
            (!sl.rel.empty() && sl.rel.front() == '/') ? sl.rel
                                                       : dir + sl.rel;
        const std::string ctx = "rixm: " + path + " shard " +
                                std::to_string(i) + ": ";
        if (std::ifstream probe(shard_path, std::ios::binary); !probe) {
            throw std::runtime_error(
                ctx + "missing shard file " + shard_path +
                " — restore it or re-run `repute index build --shards`");
        }
        rix::Header header;
        try {
            header = rix::read_header(shard_path);
        } catch (const std::runtime_error& e) {
            // Keep the distinct per-mode .rix message (bad magic,
            // version skew, foreign endian, ...) but name the shard.
            throw std::runtime_error(ctx + e.what());
        }
        if (header.header_checksum != sl.checksum) {
            throw std::runtime_error(
                ctx + shard_path +
                " does not match the manifest (header checksum "
                "mismatch) — the shard was rebuilt without its "
                "manifest; re-run `repute index build --shards`");
        }
        shard_paths.push_back(shard_path);
        contexts.push_back(ctx);
    }
    auto mapped = MappedIndex::open_all(shard_paths, contexts);
    for (std::size_t i = 0; i < shard_lines.size(); ++i) {
        const ShardLine& sl = shard_lines[i];
        Shard shard{std::move(mapped[i]), sl.text_offset, sl.left,
                    sl.owned, sl.right};
        // Checked on the mapping itself: the splice below reads the
        // owned range out of it.
        const std::uint64_t expect_len =
            std::uint64_t{sl.left} + sl.owned + sl.right;
        if (shard.mapped.fm().size() != expect_len) {
            throw std::runtime_error(
                contexts[i] + shard_paths[i] + " text length " +
                std::to_string(shard.mapped.fm().size()) +
                " disagrees with the manifest (" +
                std::to_string(expect_len) + ")");
        }
        si.shards_.push_back(std::move(shard));
    }

    // The combined reference: each shard's owned range spliced from
    // its mapped words into one packed buffer — the emitter, paired-end
    // scorer and accuracy protocols all want real contig names over
    // one concatenated text.
    std::vector<std::uint64_t> words(
        util::PackedDna::packed_word_count(total));
    for (const Shard& s : si.shards_) {
        splice_words(s.mapped.multi().concatenated().sequence(),
                     s.own_lo(), s.owned_length, s.base(), words);
    }
    genomics::Reference combined(
        combined_name.empty() ? "multi" : combined_name,
        util::PackedDna::from_words(std::move(words), total));
    si.multi_ = std::make_unique<genomics::MultiReference>(
        std::move(combined), std::move(names), std::move(starts));
    return si;
}

std::size_t ShardedIndex::mapped_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const Shard& s : shards_) bytes += s.mapped.mapped_bytes();
    return bytes;
}

std::size_t ShardedIndex::resident_bytes() const noexcept {
    std::size_t bytes =
        multi_->concatenated().sequence().memory_bytes();
    for (const Shard& s : shards_) bytes += s.mapped.resident_bytes();
    return bytes;
}

ShardBuildResult build_sharded_index(const genomics::MultiReference& multi,
                                     const std::string& manifest_path,
                                     const ShardBuildConfig& config) {
    ShardBuildResult result;
    result.manifest_path = manifest_path;
    result.plan = plan_shards(multi, config.plan);
    const std::string stem = manifest_stem(manifest_path);
    for (const ShardSpec& spec : result.plan.shards) {
        result.shard_paths.push_back(stem + "." +
                                     std::to_string(spec.index) + ".rix");
    }

    // Shard builds are independent (each owns its text slice, suffix
    // array, rank blocks, q-gram table and output file) — embarrassingly
    // parallel across `jobs` workers.
    const std::uint32_t jobs = std::max<std::uint32_t>(config.jobs, 1);
    util::ThreadPool pool(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    pool.parallel_for(result.plan.shards.size(), [&](std::size_t i) {
        const ShardSpec& spec = result.plan.shards[i];
        std::vector<std::uint8_t> codes(spec.text_length());
        multi.concatenated().sequence().extract(
            spec.text_offset(), spec.text_length(), codes.data());
        genomics::Reference slice(
            "shard" + std::to_string(spec.index),
            util::PackedDna(std::span<const std::uint8_t>(codes)));
        FmIndex fm(slice, config.plan.sa_sample,
                   config.plan.checkpoint_every, config.plan.qgram_length);
        genomics::MultiReference single(std::move(slice));
        write_rix(result.shard_paths[i], single, fm);
    });
    result.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    // Manifest last, atomically: a crash mid-build leaves shard files
    // but no manifest — nothing ever opens a half-built set.
    std::ostringstream out;
    out << kMagicLine << '\t' << rixm::kVersion << '\n';
    out << "name\t" << multi.concatenated().name() << '\n';
    out << "overlap\t" << result.plan.overlap << '\n';
    out << "sequences\t" << multi.sequence_count() << '\n';
    for (std::size_t i = 0; i < multi.sequence_count(); ++i) {
        out << "seq\t" << multi.sequence_name(i) << '\t'
            << multi.sequence_length(i) << '\n';
    }
    out << "shards\t" << result.plan.shards.size() << '\n';
    for (std::size_t i = 0; i < result.plan.shards.size(); ++i) {
        const ShardSpec& spec = result.plan.shards[i];
        const rix::Header header =
            rix::read_header(result.shard_paths[i]);
        out << "shard\t" << spec.index << '\t'
            << basename_of(result.shard_paths[i]) << '\t'
            << spec.text_offset() << '\t' << spec.left_overlap << '\t'
            << spec.owned_length << '\t' << spec.right_overlap << '\t'
            << hex_of(header.header_checksum) << '\n';
    }
    const std::string tmp = manifest_path + ".tmp";
    {
        std::ofstream file(tmp, std::ios::trunc);
        if (!file) {
            throw std::runtime_error("rixm: cannot open " + tmp +
                                     " for writing");
        }
        file << out.str();
        if (!file) {
            throw std::runtime_error("rixm: short write to " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), manifest_path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("rixm: cannot rename " + tmp + " to " +
                                 manifest_path);
    }
    return result;
}

} // namespace repute::index
