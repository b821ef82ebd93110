#include "util/prng.hpp"

#include <cmath>

namespace repute::util {

namespace {

constexpr double kPi = 3.14159265358979323846;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9E3779B97F4A7C15ULL;
    return mix64(state);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& lane : s_) lane = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Xoshiro256::bounded(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::uniform() noexcept {
    // 53 high bits -> double in [0,1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::normal(double mean, double stddev) noexcept {
    // Box-Muller; u1 nudged away from 0 so log() stays finite.
    const double u1 = uniform() + 1e-18;
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * radius * std::cos(2.0 * kPi * u2);
}

} // namespace repute::util
