#include "util/packed_dna.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace repute::util {

namespace {

constexpr std::array<std::uint8_t, 256> make_code_table() {
    std::array<std::uint8_t, 256> t{};
    t['A'] = 0; t['a'] = 0;
    t['C'] = 1; t['c'] = 1;
    t['G'] = 2; t['g'] = 2;
    t['T'] = 3; t['t'] = 3;
    return t;
}

constexpr auto kCodeTable = make_code_table();
constexpr char kBaseTable[4] = {'A', 'C', 'G', 'T'};

/// kUnpack[b] = the four 2-bit codes of packed byte b, lowest first.
constexpr std::array<std::array<std::uint8_t, 4>, 256> make_unpack_table() {
    std::array<std::array<std::uint8_t, 4>, 256> t{};
    for (std::size_t b = 0; b < 256; ++b) {
        for (std::size_t i = 0; i < 4; ++i) {
            t[b][i] = static_cast<std::uint8_t>((b >> (2 * i)) & 3u);
        }
    }
    return t;
}

constexpr auto kUnpack = make_unpack_table();

/// Expands one packed word (32 bases) into out[0, 32).
inline void unpack_word(std::uint64_t v, std::uint8_t* out) noexcept {
    for (std::size_t k = 0; k < 8; ++k) {
        std::memcpy(out + 4 * k, kUnpack[(v >> (8 * k)) & 0xFFu].data(), 4);
    }
}

/// The 32 bases [end - 32, end) of packed `words`, base end - 1 in the
/// top two bits. Bases before position 0 read as 0.
inline std::uint64_t word_ending_at(std::span<const std::uint64_t> words,
                                    std::size_t end) noexcept {
    if (end < 32) return end == 0 ? 0 : words[0] << (2 * (32 - end));
    const std::size_t pos = end - 32;
    const std::size_t word = pos >> 5;
    const std::size_t shift = (pos & 31) * 2;
    // With a nonzero shift, base end - 1 lies in word + 1.
    return shift == 0 ? words[word]
                      : (words[word] >> shift) |
                            (words[word + 1] << (64 - shift));
}

} // namespace

void pack_codes(std::span<const std::uint8_t> codes,
                std::uint64_t* out) noexcept {
    for (std::size_t lo = 0; lo < codes.size(); lo += 32) {
        const std::size_t hi = std::min(lo + 32, codes.size());
        std::uint64_t v = 0;
        for (std::size_t i = hi; i-- > lo;) v = (v << 2) | (codes[i] & 3u);
        out[lo >> 5] = v;
    }
}

std::size_t common_suffix(std::span<const std::uint64_t> a,
                          std::size_t a_end,
                          std::span<const std::uint64_t> b,
                          std::size_t b_end, std::size_t limit,
                          std::uint64_t& words) noexcept {
    std::size_t matched = 0;
    while (matched < limit) {
        ++words;
        const std::uint64_t diff = word_ending_at(a, a_end - matched) ^
                                   word_ending_at(b, b_end - matched);
        if (diff != 0) {
            return std::min(limit, matched + static_cast<std::size_t>(
                                                 std::countl_zero(diff) / 2));
        }
        matched += 32;
    }
    return limit;
}

std::uint8_t base_to_code(char c) noexcept {
    return kCodeTable[static_cast<unsigned char>(c)];
}

char code_to_base(std::uint8_t code) noexcept {
    return kBaseTable[code & 3u];
}

PackedDna::PackedDna(std::string_view ascii) {
    owned_words_.reserve((ascii.size() + 31) / 32);
    for (const char c : ascii) push_back(base_to_code(c));
}

PackedDna::PackedDna(std::span<const std::uint8_t> codes) {
    owned_words_.reserve((codes.size() + 31) / 32);
    for (const std::uint8_t code : codes) push_back(code);
}

PackedDna PackedDna::view_of(std::span<const std::uint64_t> words,
                             std::size_t size) {
    if (words.size() != packed_word_count(size)) {
        throw std::runtime_error("PackedDna: view word-count mismatch");
    }
    PackedDna dna;
    dna.size_ = size;
    dna.words_ = words;
    return dna;
}

PackedDna PackedDna::from_words(std::vector<std::uint64_t> words,
                                std::size_t size) {
    if (words.size() != packed_word_count(size)) {
        throw std::runtime_error("PackedDna: adopted word-count mismatch");
    }
    PackedDna dna;
    dna.size_ = size;
    dna.owned_words_ = std::move(words);
    dna.words_ = dna.owned_words_;
    return dna;
}

void PackedDna::push_back(std::uint8_t code) {
    if ((size_ & 31) == 0) owned_words_.push_back(0);
    set_code(size_, code);
    ++size_;
    words_ = owned_words_; // push may reallocate; refresh the view
}

void PackedDna::extract(std::size_t pos, std::size_t len,
                        std::uint8_t* out) const noexcept {
    std::size_t done = 0;
    for (; done + 32 <= len; done += 32) {
        unpack_word(word_at(pos + done), out + done);
    }
    if (done < len) {
        std::uint8_t last[32];
        unpack_word(word_at(pos + done), last);
        std::memcpy(out + done, last, len - done);
    }
}

std::vector<std::uint8_t> PackedDna::extract(std::size_t pos,
                                             std::size_t len) const {
    std::vector<std::uint8_t> out(len);
    extract(pos, len, out.data());
    return out;
}

void PackedDna::extract_words(std::size_t pos, std::size_t len,
                              std::uint64_t* out) const noexcept {
    const std::size_t n_out = packed_word_count(len);
    for (std::size_t w = 0; w < n_out; ++w) out[w] = word_at(pos + 32 * w);
    // Zero the bits past `len` so callers can mask-free compare.
    const std::size_t tail = len & 31;
    if (tail != 0) out[n_out - 1] &= (1ULL << (tail * 2)) - 1;
}

std::string PackedDna::to_string(std::size_t pos, std::size_t len) const {
    std::string s(len, '\0');
    for (std::size_t i = 0; i < len; ++i) s[i] = code_to_base(code_at(pos + i));
    return s;
}

} // namespace repute::util
