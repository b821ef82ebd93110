#pragma once
// .rixm — the sharded-index manifest over the .rix container.
//
// A sharded index is K ordinary .rix files (one FM-index per reference
// slice, each storing its slice as a single pseudo-sequence) plus one
// small text manifest that carries what the slices cannot: the real
// contig names and boundaries of the combined reference, each shard's
// placement in the concatenated text (owned range + overlap overhangs),
// and a header-checksum pin per shard so a shard rebuilt or swapped
// behind the manifest's back is caught at open time, not as silently
// wrong coordinates.
//
// Format (line-based, tab-separated, first line is the sniffable
// magic — "RIXM" never collides with the binary .rix magic, whose
// little-endian file bytes are "2XIR"):
//
//   RIXM <version>
//   name <combined reference name>
//   overlap <bp>
//   sequences <count>
//   seq <name> <length>                      x count
//   shards <count>
//   shard <i> <relpath> <text_offset> <left_overlap> <owned_length>
//         <right_overlap> <header_checksum_hex>                x count
//
// Shard paths are relative to the manifest's directory, so the set
// moves as a unit. Missing files, foreign files, version skew and
// rebuilt-without-the-manifest shards all fail with distinct,
// actionable errors (tests in test_rix.cpp).
//
// Open checks every shard cheaply first (file present, header valid and
// pinned, section bounds), then verifies the
// sections of all shards in one concurrent checksum pass
// (MappedIndex::open_all). The combined reference is then spliced from
// each shard's owned range of mapped packed words, a shift/OR per word;
// no per-base pass and no byte-per-base copy of the text.

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/multi_reference.hpp"
#include "index/rix.hpp"
#include "index/shard_plan.hpp"

namespace repute::index {

namespace rixm {
constexpr std::uint32_t kVersion = 1;
} // namespace rixm

/// True when `path` starts with the .rixm text magic — how
/// MappingSession::from_rix and `repute serve` dispatch between a
/// monolithic container and a manifest without trusting the extension.
bool is_rixm_manifest(const std::string& path);

/// A sharded index opened from a .rixm manifest: every shard's .rix
/// container mapped resident, placement metadata validated against the
/// shard headers, and the combined MultiReference (real contig names /
/// boundaries, concatenated text reassembled from the owned regions)
/// rebuilt host-side. Move-only, like MappedIndex.
class ShardedIndex {
public:
    /// One mapped shard plus its placement in the combined text.
    /// Local coordinates are positions in the shard's own indexed text;
    /// global coordinates are positions in the concatenated reference.
    struct Shard {
        MappedIndex mapped;
        std::uint32_t text_offset = 0;  ///< global start of indexed text
        std::uint32_t left_overlap = 0;
        std::uint32_t owned_length = 0;
        std::uint32_t right_overlap = 0;

        /// Global start of the owned (reported) range.
        std::uint32_t base() const noexcept {
            return text_offset + left_overlap;
        }
        /// Owned range in local coordinates — the kernel's
        /// [report_lo, report_hi) ownership window.
        std::uint32_t own_lo() const noexcept { return left_overlap; }
        std::uint32_t own_hi() const noexcept {
            return left_overlap + owned_length;
        }
    };

    /// Parses `path`, maps every shard and validates the set:
    /// missing shard file, non-.rix shard, .rix version skew, a
    /// header-checksum mismatch (shard rebuilt without the manifest)
    /// and a corrupt section each throw std::runtime_error with a
    /// distinct message naming the shard. Cheap checks of all shards
    /// run before any section checksum, so the first failing check in
    /// that order is the one reported.
    static ShardedIndex open(const std::string& path);

    ShardedIndex(ShardedIndex&&) noexcept = default;
    ShardedIndex& operator=(ShardedIndex&&) noexcept = default;

    const std::vector<Shard>& shards() const noexcept { return shards_; }
    /// The combined reference (real contig names and boundaries; text
    /// reassembled from the shards' owned regions).
    const genomics::MultiReference& multi() const noexcept {
        return *multi_;
    }
    std::uint32_t overlap() const noexcept { return overlap_; }
    const std::string& path() const noexcept { return path_; }

    /// Sum of the shard file mappings (shared, demand-paged).
    std::size_t mapped_bytes() const noexcept;
    /// Private heap: per-shard view overhead plus the reassembled
    /// combined text.
    std::size_t resident_bytes() const noexcept;

private:
    ShardedIndex() = default;

    std::vector<Shard> shards_;
    std::unique_ptr<genomics::MultiReference> multi_;
    std::uint32_t overlap_ = 0;
    std::string path_;
};

struct ShardBuildConfig {
    ShardPlanConfig plan;
    /// Parallel shard index builds (each shard's suffix array, rank
    /// blocks and q-gram table are independent — index construction is
    /// the wall-clock monster, and this is its near-linear speedup).
    std::uint32_t jobs = 1;
};

struct ShardBuildResult {
    std::string manifest_path;
    std::vector<std::string> shard_paths;
    ShardPlan plan;
    double build_seconds = 0.0; ///< wall clock of the shard builds
};

/// Plans shards over `multi`, builds each shard's FmIndex (in parallel
/// across `jobs` threads), writes the .rix containers next to
/// `manifest_path` (stem + ".<i>.rix") and finally the manifest itself
/// (atomic, like write_rix). Throws on planning or I/O failure.
ShardBuildResult build_sharded_index(const genomics::MultiReference& multi,
                                     const std::string& manifest_path,
                                     const ShardBuildConfig& config);

} // namespace repute::index
