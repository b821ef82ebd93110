#include "util/packed_dna.hpp"

#include <array>
#include <stdexcept>

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

} // namespace

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

void PackedDna::push_back(std::uint8_t code) {
    if ((size_ & 31) == 0) owned_words_.push_back(0);
    set_code(size_, code);
    ++size_;
    words_ = owned_words_; // push may reallocate; refresh the view
}

void PackedDna::extract(std::size_t pos, std::size_t len,
                        std::uint8_t* out) const noexcept {
    for (std::size_t i = 0; i < len; ++i) out[i] = code_at(pos + i);
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
    const std::size_t word = pos >> 5;
    const std::size_t shift = (pos & 31) * 2;
    for (std::size_t w = 0; w < n_out; ++w) {
        std::uint64_t v = words_[word + w] >> shift;
        if (shift != 0 && word + w + 1 < words_.size()) {
            v |= words_[word + w + 1] << (64 - shift);
        }
        out[w] = v;
    }
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
