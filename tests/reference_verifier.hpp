#pragma once
// Test oracle: the map kernel's verification stage redone outside the
// kernel, one window at a time with the unbanded scalar Myers scan.
//
// It runs the seeder and candidate gathering the kernel runs, then
// MyersMatcher::best_in on every candidate window in candidate order,
// forward strand then reverse, with the kernel's window clamps, its
// report_lo/report_hi ownership filter and its first-n cap, and finally
// sorts and deduplicates by (position, strand). The kernel verifies the
// same windows through the lane-batched banded engine, deferred and
// bucketed by window length, so equality pins the batching, the replay
// order, the cap point and every reported distance at once.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "align/myers.hpp"
#include "core/kernels.hpp"
#include "filter/candidates.hpp"
#include "filter/seed.hpp"
#include "genomics/sequence.hpp"
#include "index/fm_index.hpp"

namespace repute::oracle {

inline void reference_verify_strand(const index::FmIndex& fm,
                                    const genomics::Reference& reference,
                                    const filter::Seeder& seeder,
                                    std::span<const std::uint8_t> codes,
                                    genomics::Strand strand,
                                    std::uint32_t delta,
                                    const core::KernelConfig& config,
                                    std::vector<core::ReadMapping>& out) {
    const filter::SeedPlan plan = seeder.select(fm, codes, delta);
    filter::CandidateConfig cand_config;
    cand_config.max_hits_per_seed = config.max_hits_per_seed;
    cand_config.collapse_diagonals = config.collapse_candidates;
    cand_config.coalesce_windows = false;
    const auto n = static_cast<std::uint32_t>(codes.size());
    const filter::CandidateSet candidates =
        filter::gather_candidates(fm, plan, n, delta, cand_config);

    const align::MyersMatcher matcher(codes);
    const auto text_len = static_cast<std::uint32_t>(fm.size());
    for (const std::uint32_t start : candidates.positions) {
        if (out.size() >= config.max_locations_per_read) break;
        if (start < config.report_lo || start >= config.report_hi) {
            continue;
        }
        const std::uint32_t win_lo = start >= delta ? start - delta : 0;
        if (win_lo >= text_len) continue;
        const std::uint32_t win_len =
            std::min<std::uint32_t>(n + 2 * delta, text_len - win_lo);
        if (win_len + delta < n) continue;
        const auto window = reference.sequence().extract(win_lo, win_len);
        const std::uint32_t distance = matcher.best_in(window).distance;
        if (distance > delta) continue;
        core::ReadMapping m;
        m.position = start;
        m.edit_distance = static_cast<std::uint16_t>(distance);
        m.strand = strand;
        out.push_back(m);
    }
}

/// The mappings map_read_workitem must report for `read`.
inline std::vector<core::ReadMapping> reference_verify(
    const index::FmIndex& fm, const genomics::Reference& reference,
    const filter::Seeder& seeder, const genomics::Read& read,
    std::uint32_t delta, const core::KernelConfig& config) {
    std::vector<core::ReadMapping> out;
    reference_verify_strand(fm, reference, seeder, read.codes,
                            genomics::Strand::Forward, delta, config, out);
    reference_verify_strand(fm, reference, seeder,
                            read.reverse_complement(),
                            genomics::Strand::Reverse, delta, config, out);
    const auto key_less = [](const core::ReadMapping& a,
                             const core::ReadMapping& b) {
        return a.position != b.position ? a.position < b.position
                                        : a.strand < b.strand;
    };
    const auto key_equal = [](const core::ReadMapping& a,
                              const core::ReadMapping& b) {
        return a.position == b.position && a.strand == b.strand;
    };
    std::sort(out.begin(), out.end(), key_less);
    out.erase(std::unique(out.begin(), out.end(), key_equal), out.end());
    return out;
}

} // namespace repute::oracle
