#pragma once
// 2-bit packed DNA storage.
//
// The reference genome and the BWT are stored 2 bits/base (A=0 C=1 G=2
// T=3). Ambiguous bases (N) are resolved upstream by the genomics layer;
// the index layer never sees them. Packing quarters the memory footprint,
// which matters on the embedded device profiles where buffer ceilings are
// enforced (paper §III: at most 1/4 of RAM per allocation).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repute::util {

/// Base codes. Values are chosen so that `code ^ 3` is the complement.
enum class Base : std::uint8_t { A = 0, C = 1, G = 2, T = 3 };

/// Maps A/C/G/T (either case) to 0..3; any other byte maps to 0 (A).
std::uint8_t base_to_code(char c) noexcept;
/// Maps 0..3 to 'A','C','G','T'.
char code_to_base(std::uint8_t code) noexcept;
/// Complement of a 2-bit code.
constexpr std::uint8_t complement_code(std::uint8_t code) noexcept {
    return code ^ 3u;
}

/// Packs 2-bit `codes` into `out` in the PackedDna::words() layout
/// (base i at bits [2i, 2i+2) of out[i/32], zero-padded tail); `out`
/// must hold PackedDna::packed_word_count(codes.size()) words.
void pack_codes(std::span<const std::uint8_t> codes,
                std::uint64_t* out) noexcept;

/// Length of the longest common suffix of a[0, a_end) and b[0, b_end),
/// two sequences in the PackedDna::words() layout, capped at `limit`
/// (which must not exceed a_end or b_end). Compares 32 bases per XOR
/// and finds the first mismatch with count-leading-zeros; adds the
/// word pairs compared to `words`.
std::size_t common_suffix(std::span<const std::uint64_t> a,
                          std::size_t a_end,
                          std::span<const std::uint64_t> b,
                          std::size_t b_end, std::size_t limit,
                          std::uint64_t& words) noexcept;

class PackedDna {
public:
    PackedDna() = default;
    /// Packs an ASCII sequence (A/C/G/T, case-insensitive).
    explicit PackedDna(std::string_view ascii);
    /// Packs a sequence of 2-bit codes.
    explicit PackedDna(std::span<const std::uint8_t> codes);

    /// Read-only view over externally owned packed words (the zero-copy
    /// mode of the mmap'd .rix container). `words` must hold exactly
    /// packed_word_count(size) entries with a zero-padded tail and must
    /// outlive the view. Mutation (push_back) is invalid on a view.
    static PackedDna view_of(std::span<const std::uint64_t> words,
                             std::size_t size);

    /// Takes ownership of already-packed words (the words() layout):
    /// `words` must hold exactly packed_word_count(size) entries with
    /// a zero-padded tail. How a sequence assembled word by word (the
    /// sharded index's combined reference) becomes a PackedDna without
    /// a per-base pass.
    static PackedDna from_words(std::vector<std::uint64_t> words,
                                std::size_t size);

    // Move-only: a memberwise copy would leave words_ pointing into
    // the source's buffer.
    PackedDna(const PackedDna&) = delete;
    PackedDna& operator=(const PackedDna&) = delete;
    PackedDna(PackedDna&&) noexcept = default;
    PackedDna& operator=(PackedDna&&) noexcept = default;
    ~PackedDna() = default;

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// True when the words are borrowed (view_of), not owned.
    bool is_view() const noexcept {
        return words_.data() != nullptr &&
               words_.data() != owned_words_.data();
    }

    /// The backing words — what the .rix writer serializes.
    std::span<const std::uint64_t> words() const noexcept {
        return words_;
    }

    std::uint8_t code_at(std::size_t i) const noexcept {
        return static_cast<std::uint8_t>(
            (words_[i >> 5] >> ((i & 31) * 2)) & 3u);
    }

    void push_back(std::uint8_t code);

    /// Extracts codes [pos, pos+len) into `out` (must hold len bytes),
    /// a packed word at a time: 32 bases per shift-combined load, 4
    /// bases per table lookup. The one unpack routine behind every
    /// byte-window reader (scalar Myers, CIGAR re-alignment, mate
    /// rescue).
    void extract(std::size_t pos, std::size_t len,
                 std::uint8_t* out) const noexcept;
    std::vector<std::uint8_t> extract(std::size_t pos,
                                      std::size_t len) const;

    /// Extracts [pos, pos+len) as 2-bit-packed words (32 bases per
    /// u64, base i at bits [2i, 2i+2) of out[i/32]) into `out`, which
    /// must hold packed_word_count(len) words. Bits past `len` are
    /// zero. Word-at-a-time shift-combine, not a per-base loop — this
    /// is the verification kernel's window fetch.
    void extract_words(std::size_t pos, std::size_t len,
                       std::uint64_t* out) const noexcept;

    static constexpr std::size_t packed_word_count(
        std::size_t len) noexcept {
        return (len + 31) / 32;
    }

    /// ASCII round-trip of [pos, pos+len).
    std::string to_string(std::size_t pos, std::size_t len) const;
    std::string to_string() const { return to_string(0, size_); }

    /// Total bytes reachable through the words (owned or mapped).
    std::size_t memory_bytes() const noexcept {
        return words_.size() * sizeof(std::uint64_t);
    }

    /// Heap bytes actually owned — zero for a view.
    std::size_t heap_bytes() const noexcept {
        return owned_words_.size() * sizeof(std::uint64_t);
    }

private:
    std::size_t size_ = 0;
    std::vector<std::uint64_t> owned_words_; // 32 bases per word
    std::span<const std::uint64_t> words_;   ///< owned_words_ or borrowed

    /// The 32 bases starting at `pos`, base pos + i at bits [2i, 2i+2).
    /// Bases past the end of the sequence read as 0.
    std::uint64_t word_at(std::size_t pos) const noexcept {
        const std::size_t word = pos >> 5;
        const std::size_t shift = (pos & 31) * 2;
        std::uint64_t v = words_[word] >> shift;
        if (shift != 0 && word + 1 < words_.size()) {
            v |= words_[word + 1] << (64 - shift);
        }
        return v;
    }

    void set_code(std::size_t i, std::uint8_t code) noexcept {
        const std::size_t shift = (i & 31) * 2;
        owned_words_[i >> 5] =
            (owned_words_[i >> 5] & ~(3ULL << shift)) |
            (static_cast<std::uint64_t>(code) << shift);
    }
};

} // namespace repute::util
