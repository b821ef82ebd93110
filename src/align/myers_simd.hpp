#pragma once
// Multi-candidate banded Myers verification (lane-batched SWAR).
//
// The scalar δ-banded scan (MyersMatcher::best_in_bounded) verifies one
// candidate window per call; its band schedule — which 64-row words are
// live at column j, where segments start and end — is a closed-form
// function of (pattern length m, text length t, δ) only, never of the
// window bytes. So a batch of windows sharing (m, t, δ) can run the
// *same* schedule with the per-lane bit-state (VP/VN/Eq/boundary score)
// laid out structure-of-arrays, one 64-bit word per lane, and the whole
// column update becomes straight-line 64-bit vector arithmetic across
// lanes — vertical SWAR in the sw-vector.c / minimap2-acceleration
// style, with zero lane divergence by construction.
//
// The engine computes, lane for lane, the exact algorithm of
// best_in_bounded(): same activation/freeze columns, same frozen-
// boundary carries, same branchless boundary-score tracking, same
// early-exit rule (a finished lane freezes its result at the column the
// scalar scan would have stopped; the batch runs on until every lane is
// settled). Results — distance, earliest end, early-exit flag — are
// byte-identical per lane, pinned by the differential harness in
// tests/test_myers_simd.cpp.
//
// Backends: the column step is written as fixed-trip lane loops over
// uint64 arrays, compiled per-file with -mavx2 / -msse4.2 behind the
// REPUTE_SIMD CMake option (modeled on REPUTE_POPCNT); without the
// option — or on compilers rejecting the flags — the identical source
// builds as the portable fallback. One source of truth, so every
// backend is equivalent by construction, not by parallel maintenance.

#include <cstdint>
#include <span>
#include <vector>

#include "align/myers.hpp"

namespace repute::align {

/// Instruction set the batched engine was compiled for:
/// "avx512" | "avx2" | "sse4.2" | "portable".
const char* myers_simd_backend() noexcept;

/// A maximal run of same-length verification jobs after bucketing:
/// order[first, first + count) index the caller's job list, all with
/// window length `length`.
struct LengthBucket {
    std::uint32_t length = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/// Stable-partitions job indices [0, lengths.size()) by window length.
/// `order` receives a permutation of [0, n) grouped bucket by bucket
/// (buckets in first-appearance order of their length; original order
/// preserved within a bucket); `buckets` receives the group table.
/// Both outputs are cleared first and reuse capacity — no steady-state
/// allocation. O(n · distinct-lengths); candidate windows of one strand
/// take at most a handful of distinct clamped lengths.
void bucket_by_length(std::span<const std::uint32_t> lengths,
                      std::vector<std::uint32_t>& order,
                      std::vector<LengthBucket>& buckets);

class MyersSimdEngine {
public:
    /// Candidate windows verified per batch. Fixed across backends so
    /// bucketing, tail handling, and metrics do not depend on the
    /// instruction set (AVX-512 holds the lane row in one zmm, AVX2 in
    /// a ymm pair, SSE in four xmm, the portable build in a plain
    /// array).
    static constexpr std::size_t kLanes = 8;

    static constexpr std::size_t kMaxPatternLength =
        MyersMatcher::kMaxPatternLength;

    MyersSimdEngine() = default;
    explicit MyersSimdEngine(std::span<const std::uint8_t> pattern);

    /// Re-targets the engine; same contract and Peq layout as
    /// MyersMatcher::set_pattern (no allocation once warmed).
    void set_pattern(std::span<const std::uint8_t> pattern);

    /// One lane's candidate window, read straight from 2-bit packed
    /// words in the util::PackedDna layout (base i at bits
    /// [2(i%32), 2(i%32)+2) of words[i/32]): the window starts at base
    /// `base` of `words`, at any offset within a word.
    struct PackedWindow {
        const std::uint64_t* words = nullptr;
        std::size_t base = 0;
    };

    /// One lane's scan result: distance, earliest end and early-exit
    /// flag, exactly as the scalar banded scan reports them.
    using Hit = MyersMatcher::BoundedHit;

    /// Batched δ-banded early-exit scan: windows[0..count) each hold
    /// exactly `text_length` bases. Writes
    /// out[i] = MyersMatcher(pattern).best_in_bounded(window i, delta)
    /// — bit-for-bit, including the early_exit flag — for every lane.
    /// count must be in [1, kLanes]; unused lanes cost vector width,
    /// not correctness, so a bucket's tail and a single window (mate
    /// rescue) run as partial batches.
    void best_in_bounded_multi(const PackedWindow* windows,
                               std::size_t count, std::size_t text_length,
                               std::uint32_t delta,
                               Hit* out) const noexcept;

    std::size_t pattern_length() const noexcept { return m_; }
    std::size_t word_count() const noexcept { return words_; }

    /// Vector word-columns executed by the most recent batch: one unit
    /// is one Myers column word advanced across *all* lanes at once
    /// (the honest device-model cost of the batched step — see
    /// OpWeights::simd_word). The batch runs until its last live lane
    /// settles, so early-exiting lanes do not shrink this number.
    std::uint64_t last_word_ops() const noexcept { return last_word_ops_; }

private:
    std::size_t m_ = 0;
    std::size_t words_ = 0;
    std::uint64_t top_mask_ = 0;
    std::vector<std::uint64_t> peq_; ///< Peq[c * words_ + w]
    /// Lane-interleaved window words: twords_[k * kLanes + l] = bases
    /// [32k, 32k + 32) of window l, realigned to the window's first
    /// base, so every column reads one contiguous lane row.
    /// Grows to the longest window seen, then reuses capacity (the
    /// zero-allocation steady-state contract of KernelScratch).
    mutable std::vector<std::uint64_t> twords_;
    mutable std::uint64_t last_word_ops_ = 0;
};

} // namespace repute::align
