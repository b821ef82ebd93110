#include "util/bitvector.hpp"

#include <bit>
#include <stdexcept>

namespace repute::util {

namespace {
constexpr std::size_t kWordsPerSuper = 8; // 512 bits
}

BitVector::BitVector(std::size_t n, bool value)
    : size_(n), owned_words_((n + 63) / 64, value ? ~0ULL : 0ULL) {
    if (value && (n & 63) != 0) {
        // Keep the tail word zero-padded so popcounts stay exact.
        owned_words_.back() &= (1ULL << (n & 63)) - 1;
    }
    words_ = owned_words_;
}

BitVector BitVector::view_of(std::span<const std::uint64_t> words,
                             std::size_t n) {
    if (words.size() != (n + 63) / 64) {
        throw std::runtime_error("BitVector: view word-count mismatch");
    }
    BitVector bv;
    bv.size_ = n;
    bv.words_ = words;
    bv.build_rank();
    return bv;
}

BitVector::BitVector(const BitVector& other)
    : size_(other.size_), total_ones_(other.total_ones_),
      owned_words_(other.owned_words_), superblock_(other.superblock_),
      block_(other.block_) {
    words_ = other.is_view() ? other.words_
                             : std::span<const std::uint64_t>(owned_words_);
}

BitVector& BitVector::operator=(const BitVector& other) {
    if (this != &other) {
        BitVector copy(other);
        *this = std::move(copy);
    }
    return *this;
}

void BitVector::build_rank() {
    const std::size_t n_words = words_.size();
    const std::size_t n_supers = n_words / kWordsPerSuper + 1;
    superblock_.assign(n_supers, 0);
    block_.assign(n_words + 1, 0);

    std::uint64_t running = 0;
    for (std::size_t w = 0; w < n_words; ++w) {
        if (w % kWordsPerSuper == 0) {
            superblock_[w / kWordsPerSuper] = running;
        }
        block_[w] = static_cast<std::uint16_t>(
            running - superblock_[w / kWordsPerSuper]);
        running += static_cast<std::uint64_t>(std::popcount(words_[w]));
    }
    if (n_words % kWordsPerSuper == 0) {
        superblock_[n_words / kWordsPerSuper] = running;
    }
    block_[n_words] = static_cast<std::uint16_t>(
        running - superblock_[n_words / kWordsPerSuper]);
    total_ones_ = running;
}

std::size_t BitVector::rank1(std::size_t i) const noexcept {
    const std::size_t w = i >> 6;
    std::size_t r = superblock_[w / kWordsPerSuper] + block_[w];
    if (i & 63) {
        r += static_cast<std::size_t>(
            std::popcount(words_[w] & ((1ULL << (i & 63)) - 1)));
    }
    return r;
}

std::size_t BitVector::select1(std::size_t k) const noexcept {
    if (k >= total_ones_) return size_;
    // Binary search the superblock directory for the last entry <= k.
    std::size_t lo = 0, hi = superblock_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi + 1) / 2;
        if (superblock_[mid] <= k)
            lo = mid;
        else
            hi = mid - 1;
    }
    std::size_t remaining = k - superblock_[lo];
    std::size_t w = lo * kWordsPerSuper;
    while (true) {
        const auto in_word =
            static_cast<std::size_t>(std::popcount(words_[w]));
        if (remaining < in_word) break;
        remaining -= in_word;
        ++w;
    }
    // Scan the word for the (remaining+1)-th set bit.
    std::uint64_t word = words_[w];
    for (std::size_t j = 0; j < remaining; ++j) word &= word - 1;
    return w * 64 +
           static_cast<std::size_t>(std::countr_zero(word));
}

} // namespace repute::util
