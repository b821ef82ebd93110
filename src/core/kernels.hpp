#pragma once
// The REPUTE map kernel: filtration + verification for one read, both
// strands, expressed as an OpenCL-style work-item body.
//
// Kernel flow (paper §II): DP filtration chooses delta+1 k-mers; their
// FM-index hits become candidate diagonals; candidates are deduplicated
// and each window is verified with the Myers bit-vector kernel; accepted
// alignments are written into the first-n output slots. Candidates are
// verified directly from the diagonal list instead of materializing a
// per-read candidate table — the paper's "kernel flow modified to
// minimize the increase in memory footprint" point. In REPUTE's flow a
// pigeonhole zero certificate (filter::zero_certificate) runs first and
// ends a strand whose DP optimum would be 0 before the DP starts.
//
// Work accounting: every stage reports abstract operations, weighted so
// one unit is roughly one inner-loop step; the device model turns ops
// into modeled seconds (see ocl::Device).

#include <cstdint>
#include <span>
#include <vector>

#include "align/myers_simd.hpp"
#include "core/mapping.hpp"
#include "filter/candidates.hpp"
#include "filter/seed.hpp"
#include "genomics/sequence.hpp"
#include "index/fm_index.hpp"
#include "obs/stage_counters.hpp"

namespace repute::core {

/// Cost weights for the device time model (one unit ~ one inner-loop
/// step of the modeled kernel).
struct OpWeights {
    std::uint64_t fm_extend = 8;      ///< 2 occ queries + bookkeeping
    std::uint64_t dp_cell = 2;        ///< one DP min/add
    std::uint64_t qgram_lookup = 1;   ///< one jump-table load
    /// SA locate = base + step * (sa_sample - 1) / 2 (the average LF
    /// walk length grows with the sampling interval). Charged for
    /// candidate hits and for the seed scans' anchor locates alike.
    std::uint64_t locate_base = 19;
    std::uint64_t locate_step = 14;
    /// One packed-text word compared by an anchored seed scan (load,
    /// XOR, count-leading-zeros; DESIGN §4b).
    std::uint64_t text_word = 2;
    /// One lane-batched Myers column word advanced across all
    /// MyersSimdEngine::kLanes candidates at once, full batch or
    /// partial. About 3x a scalar column word (weight 4: wider ALU op
    /// plus blend-based Eq lookup and bottom-row bookkeeping) but
    /// amortized over 8 lanes, so a full batch models ~2.5x cheaper
    /// per candidate than a scalar scan.
    std::uint64_t simd_word = 13;
    std::uint64_t per_candidate = 48; ///< window fetch + dedup
};

struct KernelConfig {
    std::uint32_t s_min = 12;
    std::uint32_t max_locations_per_read = 100; ///< first-n output cap
    std::uint32_t max_hits_per_seed = 2048;
    /// REPUTE's modified kernel flow (true): gather candidates, collapse
    /// duplicate diagonals, verify once per window. CORAL's streaming
    /// flow (false): verify every seed hit as it comes — no cross-seed
    /// dedup, so windows shared by several seeds are re-verified; the
    /// duplicated work grows with delta+1 and is the main reason the DP
    /// filtration wins at long reads / high error budgets (§IV).
    bool collapse_candidates = true;
    /// Shared fetch of overlapping candidate windows (DESIGN.md
    /// "Verification funnel"). Output-neutral: mapping results are
    /// byte-identical with it off; the toggle exists for before/after
    /// benchmarks. Verification itself has one path: every window goes
    /// through the lane-batched δ-banded Myers engine, bucketed by
    /// clamped window length (so vector lanes never diverge),
    /// MyersSimdEngine::kLanes at a time with a partial batch at each
    /// bucket's tail.
    bool coalesce_windows = true;
    /// Read by nothing: verification has one path. Kept because the
    /// end-to-end benchmark still assigns it.
    bool simd_verification = true;
    /// Ownership window for sharded mapping: only candidate diagonals in
    /// [report_lo, report_hi) are verified and reported. Shard kernels
    /// index overlapping reference slices so junction-straddling windows
    /// stay intact, and the owning shard alone reports each position.
    /// The filter runs *before* verification and the first-n cap
    /// counting, so a shard whose seeds find the monolithic candidate
    /// diagonals outputs the monolithic list restricted to its owned
    /// range. A shard plans seeds on its own k-mer frequencies, though,
    /// and on repeat-rich text it can represent a candidate cluster by
    /// another diagonal (DESIGN §5g, ROADMAP "One mapping per alignment
    /// locus"). Defaults cover everything (the monolithic path is
    /// untouched).
    std::uint32_t report_lo = 0;
    std::uint32_t report_hi = 0xFFFFFFFFu;
    OpWeights weights;
};

/// Per-stage accounting of one or more kernel executions: the shared
/// obs::StageCounters breakdown (filtration / locate / verify ops,
/// candidate windows) plus kernel-internal counters that only matter
/// inside the map kernel.
struct StageTotals : obs::StageCounters {
    /// Strands settled by the pigeonhole zero certificate (layer 0):
    /// no seed selection, candidates or verification ran for them.
    std::uint64_t zero_certified = 0;
    /// Text-anchored seed scans: one-row ranges located, and suffix
    /// frequencies settled against the text instead of the FM index.
    std::uint64_t anchor_locates = 0;
    std::uint64_t text_settled = 0;
    std::uint64_t raw_hits = 0; ///< seed hits before diagonal collapse
    std::uint64_t accepted = 0; ///< mappings written (pre-merge)
    // Verification-funnel effectiveness.
    /// Always 0: the SHD prefilter layer these counted is gone. Kept
    /// because the end-to-end benchmark still reports them.
    std::uint64_t prefilter_rejects = 0;
    std::uint64_t prefilter_exacts = 0;
    std::uint64_t myers_early_exits = 0;  ///< banded scans abandoned early
    std::uint64_t windows_coalesced = 0;  ///< windows sharing a fetch
    // Lane-batched verification effectiveness.
    std::uint64_t simd_batches = 0; ///< full-lane engine dispatches
    std::uint64_t simd_lanes = 0;   ///< windows verified in full batches
    std::uint64_t simd_tail = 0;    ///< windows verified in partial batches

    StageTotals& operator+=(const StageTotals& other) noexcept;
};

/// A Myers verification deferred for lane-batching, recorded in
/// candidate order: the window's packed words are staged in
/// KernelScratch::simd_arena, the batched dispatch fills in the scan
/// result, and the jobs then replay into the output in order, exactly
/// where a per-window verify loop would have pushed them (first-n cap
/// semantics included).
struct VerifyJob {
    std::uint32_t position = 0;   ///< candidate diagonal (mapping position)
    std::uint32_t arena_base = 0; ///< window's first base in simd_arena
    std::uint32_t win_len = 0;    ///< clamped window length (bucket key)
    std::uint32_t distance = 0;   ///< filled by dispatch
};

/// Per-work-item reusable buffers: every transient the kernel needs —
/// seed plan, DP scratch, candidate set, RC codes, verification
/// staging, Myers state. One KernelScratch per worker thread makes the
/// steady-state kernel allocation-free (buffers grow to the
/// read-parameter bound on the first read and are recycled after), the
/// host analogue of statically budgeted OpenCL private memory.
struct KernelScratch {
    filter::SeedPlan plan;
    filter::SeedScratch seeder;
    filter::CandidateSet candidates;
    std::vector<std::uint32_t> hits;   ///< per-seed locate buffer
    std::vector<std::uint8_t> rc_codes;///< reverse-complemented read
    // Lane-batched verification staging: each coalesced group's packed
    // words land in the arena (one fetch per group), jobs record the
    // deferred scans, and the bucket tables drive the length-homogeneous
    // dispatch. All reuse capacity — the zero-allocation steady state.
    align::MyersSimdEngine simd_engine;
    std::vector<std::uint64_t> simd_arena;
    std::vector<VerifyJob> simd_jobs;
    std::vector<std::uint32_t> simd_job_lengths;
    std::vector<std::uint32_t> simd_order;
    std::vector<align::LengthBucket> simd_buckets;
    bool warm = false; ///< true once one read has sized the buffers
};

/// Full pipeline for one read (both strands). Fills `out` (cleared
/// first) with at most `config.max_locations_per_read` mappings sorted
/// by (position, strand), and returns the abstract ops consumed.
/// `reference` must be the sequence the `fm` index was built from.
/// When `stages` is non-null the per-stage breakdown is accumulated
/// into it (caller provides one per work-item or synchronizes).
std::uint64_t map_read_workitem(const index::FmIndex& fm,
                                const genomics::Reference& reference,
                                const filter::Seeder& seeder,
                                const genomics::Read& read,
                                std::uint32_t delta,
                                const KernelConfig& config,
                                std::vector<ReadMapping>& out,
                                KernelScratch& scratch,
                                StageTotals* stages = nullptr);

/// Static private-memory requirement per work-item for a launch with
/// these parameters (seeder scratch + verification window + Myers state
/// + dedup cache). Drives GPU occupancy and out-of-resource behavior.
/// The lane-batch staging buffers (simd_arena, jobs) are
/// host-side re-ordering scratch, not part of the modeled per-work-item
/// OpenCL private memory, so they are deliberately excluded.
std::uint64_t kernel_scratch_bytes(const filter::Seeder& seeder,
                                   std::size_t read_length,
                                   std::uint32_t delta);

} // namespace repute::core
