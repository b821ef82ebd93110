#include "filter/seed.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "index/qgram_table.hpp"

namespace repute::filter {

void validate_read_parameters(std::size_t read_length, std::uint32_t delta,
                              std::uint32_t s_min) {
    if (s_min == 0) {
        throw std::invalid_argument("minimum k-mer length must be >= 1");
    }
    const std::uint64_t needed =
        static_cast<std::uint64_t>(delta + 1) * s_min;
    if (read_length < needed) {
        throw std::invalid_argument(
            "read of length " + std::to_string(read_length) +
            " cannot host " + std::to_string(delta + 1) +
            " k-mers of minimum length " + std::to_string(s_min));
    }
    if (read_length > 512) {
        throw std::invalid_argument("read length exceeds kernel limit 512");
    }
}

bool zero_certificate(const index::FmIndex& fm,
                      std::span<const std::uint8_t> read,
                      std::uint32_t delta, std::uint32_t s_min,
                      std::uint64_t& fm_extends,
                      std::uint64_t& qgram_jumps) {
    const index::QGramTable* qt = fm.qgrams();
    // The jump never reaches past s_min: an empty range at jump depth
    // j <= s_min pins the seed to exactly s_min bases, while a deeper
    // empty jump would leave the shortest zero-count length unknown.
    const std::uint32_t jump =
        qt != nullptr ? std::min(qt->q(), s_min) : 0;
    auto end = static_cast<std::uint32_t>(read.size());
    for (std::uint32_t x = delta + 1; x >= 1; --x) {
        // Seed x must start at or after `lo` to leave room for the
        // x - 1 seeds before it.
        const std::uint32_t lo = (x - 1) * s_min;
        if (end < lo + s_min) return false;
        auto range = fm.whole_range();
        std::uint32_t d = end;
        if (jump > 0) {
            d = end - jump;
            range = qt->lookup(read.subspan(d, jump));
            ++qgram_jumps;
        }
        while (!range.empty() && d > lo) {
            range = fm.extend(range, read[--d]);
            ++fm_extends;
        }
        if (!range.empty()) return false;
        // read[d, end) is absent, and so is every suffix of at least
        // s_min bases that contains it.
        end = std::min(d, end - s_min);
    }
    return true;
}

void plan_from_boundaries(const index::FmIndex& fm,
                          std::span<const std::uint8_t> read,
                          std::span<const std::uint16_t> boundaries,
                          SeedPlan& plan) {
    const index::QGramTable* qt = fm.qgrams();
    plan.seeds.clear();
    plan.seeds.reserve(boundaries.size());
    for (std::size_t s = 0; s < boundaries.size(); ++s) {
        const std::uint16_t start = boundaries[s];
        const std::uint16_t end =
            (s + 1 < boundaries.size())
                ? boundaries[s + 1]
                : static_cast<std::uint16_t>(read.size());
        Seed seed;
        seed.start = start;
        seed.length = static_cast<std::uint16_t>(end - start);
        if (qt != nullptr && seed.length > 0) {
            const std::uint32_t jump =
                std::min<std::uint32_t>(seed.length, qt->q());
            auto range = qt->lookup(read.subspan(end - jump, jump));
            for (std::uint32_t d = end - jump; d-- > start && !range.empty();) {
                range = fm.extend(range, read[d]);
            }
            seed.range = range;
            plan.qgram_jumps += 1;
            plan.fm_extends += seed.length - jump;
        } else {
            seed.range = fm.search(read.subspan(start, seed.length));
            plan.fm_extends += seed.length;
        }
        plan.total_candidates += seed.range.count();
        plan.seeds.push_back(seed);
    }
}

SeedPlan plan_from_boundaries(const index::FmIndex& fm,
                              std::span<const std::uint8_t> read,
                              std::span<const std::uint16_t> boundaries) {
    SeedPlan plan;
    plan_from_boundaries(fm, read, boundaries, plan);
    return plan;
}

} // namespace repute::filter
