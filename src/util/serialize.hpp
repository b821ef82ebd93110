#pragma once
// FNV-1a 64-bit checksum — the integrity check of the .rix index
// container (index/rix.hpp).

#include <cstddef>
#include <cstdint>

namespace repute::util {

/// Not cryptographic; it exists to catch truncation, bit rot and torn
/// writes at load time. It is not free: each byte is one xor and one
/// 64-bit multiply on a serial dependency chain, about 0.6 GB/s on one
/// core of a 4-vCPU Xeon VM (a 15.7 MB container took ~25 ms), well
/// under memory bandwidth. A section cannot be split across threads,
/// so MappedIndex::open hashes whole sections concurrently instead.
inline std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                             std::uint64_t seed =
                                 0xCBF29CE484222325ULL) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

} // namespace repute::util
