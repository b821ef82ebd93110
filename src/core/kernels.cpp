#include "core/kernels.hpp"

#include <algorithm>

#include "filter/candidates.hpp"
#include "obs/trace.hpp"
#include "util/packed_dna.hpp"

namespace repute::core {

StageTotals& StageTotals::operator+=(const StageTotals& other) noexcept {
    obs::StageCounters::operator+=(other);
    zero_certified += other.zero_certified;
    anchor_locates += other.anchor_locates;
    text_settled += other.text_settled;
    raw_hits += other.raw_hits;
    accepted += other.accepted;
    myers_early_exits += other.myers_early_exits;
    windows_coalesced += other.windows_coalesced;
    simd_batches += other.simd_batches;
    simd_lanes += other.simd_lanes;
    simd_tail += other.simd_tail;
    return *this;
}

namespace {

/// Charges a seed scan's work to the filtration stage.
void charge_scan(const filter::ScanWork& work, const OpWeights& w,
                 std::uint64_t locate_cost, StageTotals& stages) {
    stages.filtration_ops += work.fm_extends * w.fm_extend +
                             work.qgram_jumps * w.qgram_lookup +
                             work.anchor_locates * locate_cost +
                             work.text_words * w.text_word;
    stages.anchor_locates += work.anchor_locates;
    stages.text_settled += work.text_settled;
}

/// Filtration + verification of one strand's code sequence. Appends to
/// `out` until the first-n cap; accumulates per-stage ops into `stages`.
/// All transient state lives in `scratch`.
void map_strand(const index::FmIndex& fm,
                const genomics::Reference& reference,
                const filter::Seeder& seeder,
                std::span<const std::uint8_t> codes,
                genomics::Strand strand, std::uint32_t delta,
                const KernelConfig& config,
                std::vector<ReadMapping>& out, KernelScratch& scratch,
                StageTotals& stages) {
    const auto& w = config.weights;
    const std::uint64_t locate_cost =
        w.locate_base + w.locate_step * (fm.sa_sample() - 1) / 2;

    // --- Layer 0 (REPUTE flow): the pigeonhole zero certificate. A
    // strand that splits into delta+1 absent seeds has no locus within
    // delta edits; the certificate fires exactly when the DP's optimum
    // is 0, i.e. on the strands that would gather no candidates, so
    // skipping the DP there changes no output. The CORAL baseline runs
    // its seeder on every strand, as the paper's does.
    if (config.collapse_candidates) {
        // Oversized or too-short reads still fail with the seeder's own
        // message rather than being certified.
        filter::validate_read_parameters(codes.size(), delta, config.s_min);
        filter::ScanWork work;
        const bool certified = filter::zero_certificate(
            fm, codes, delta, config.s_min, work);
        charge_scan(work, w, locate_cost, stages);
        if (certified) {
            ++stages.zero_certified;
            return;
        }
    }

    // --- Filtration: DP (or heuristic) seed selection.
    filter::SeedPlan& plan = scratch.plan;
    seeder.select(fm, codes, delta, plan, scratch.seeder);
    charge_scan(plan, w, locate_cost, stages);
    stages.filtration_ops += plan.dp_cells * w.dp_cell;

    // --- Candidate gathering: locate hits; REPUTE's modified flow also
    // collapses duplicate diagonals before verification.
    filter::CandidateConfig cand_config;
    cand_config.max_hits_per_seed = config.max_hits_per_seed;
    cand_config.collapse_diagonals = config.collapse_candidates;
    cand_config.coalesce_windows = config.coalesce_windows;
    filter::CandidateSet& candidates = scratch.candidates;
    filter::gather_candidates(fm, plan,
                              static_cast<std::uint32_t>(codes.size()),
                              delta, cand_config, candidates, scratch.hits);
    stages.locate_ops += candidates.located_hits * locate_cost;
    stages.verify_ops += candidates.raw_hits * w.per_candidate;
    stages.raw_hits += candidates.raw_hits;
    stages.candidates += candidates.positions.size();

    // --- Verification: every candidate window through the lane-batched
    // δ-banded Myers engine. Each window's group fetch stages packed
    // reference words in the arena (coalescing lets overlapping windows
    // share one fetch) and queues a VerifyJob; jobs are then dispatched
    // bucketed by clamped window length so every lane of a batch shares
    // one band schedule, and replayed in candidate order afterwards, so
    // the accept set, distances and first-n cap point are exactly those
    // of a per-window best_in() loop.
    const auto accept = [&](std::uint32_t start, std::uint32_t distance) {
        if (distance > delta) return;
        ReadMapping m;
        // Report the candidate diagonal (clamped): the alignment start
        // lies within +-delta of it, and every mapper in the comparison
        // uses the same convention, so the accuracy protocols compare
        // like with like.
        m.position = start;
        m.edit_distance = static_cast<std::uint16_t>(distance);
        m.strand = strand;
        out.push_back(m);
        ++stages.accepted;
    };
    const auto n = static_cast<std::uint32_t>(codes.size());
    const auto text_len = static_cast<std::uint32_t>(fm.size());
    const util::PackedDna& ref_seq = reference.sequence();
    std::vector<std::uint64_t>& arena = scratch.simd_arena;
    std::vector<VerifyJob>& jobs = scratch.simd_jobs;
    arena.clear();
    jobs.clear();

    const bool grouped =
        config.coalesce_windows && !candidates.groups.empty();
    if (grouped) {
        stages.windows_coalesced +=
            candidates.positions.size() - candidates.groups.size();
    }
    const std::size_t n_groups =
        grouped ? candidates.groups.size() : candidates.positions.size();

    for (std::size_t gi = 0; gi < n_groups; ++gi) {
        if (out.size() >= config.max_locations_per_read) break; // first-n

        filter::CandidateSet::WindowGroup group;
        if (grouped) {
            group = candidates.groups[gi];
        } else {
            // Singleton fallback: the candidate's own window is the
            // group span.
            const std::uint32_t start = candidates.positions[gi];
            const std::uint32_t lo = start >= delta ? start - delta : 0;
            if (lo >= text_len) continue;
            group = {static_cast<std::uint32_t>(gi), 1, lo,
                     std::min<std::uint32_t>(n + 2 * delta,
                                             text_len - lo)};
        }

        // The group fetch is lazy: only once a candidate needs it.
        bool fetched = false;
        std::uint32_t group_base = 0;

        for (std::uint32_t ci = 0; ci < group.count; ++ci) {
            const std::uint32_t start =
                candidates.positions[group.first + ci];
            // Sharded ownership filter: drop non-owned diagonals before
            // any verification or cap accounting (see KernelConfig).
            if (start < config.report_lo || start >= config.report_hi) {
                continue;
            }
            const std::uint32_t win_lo =
                start >= delta ? start - delta : 0;
            if (win_lo >= text_len) continue;
            const std::uint32_t win_len =
                std::min<std::uint32_t>(n + 2 * delta, text_len - win_lo);
            if (win_len + delta < n) continue; // window cannot fit read

            if (!fetched) {
                const std::size_t word_off = arena.size();
                arena.resize(word_off +
                             util::PackedDna::packed_word_count(group.len));
                ref_seq.extract_words(group.lo, group.len,
                                      arena.data() + word_off);
                group_base = static_cast<std::uint32_t>(word_off * 32);
                fetched = true;
            }
            jobs.push_back({start, group_base + (win_lo - group.lo),
                            win_len, 0});
        }
    }

    if (jobs.empty()) return;

    // --- Batched dispatch: bucket jobs by clamped window length (m and
    // δ are fixed within a strand call, so equal-length windows share
    // the whole band schedule — zero lane divergence) and run each
    // bucket through the engine min(kLanes, remaining) lanes at a time.
    constexpr std::size_t kLanes = align::MyersSimdEngine::kLanes;
    std::vector<std::uint32_t>& lengths = scratch.simd_job_lengths;
    lengths.clear();
    for (const VerifyJob& job : jobs) lengths.push_back(job.win_len);
    align::bucket_by_length(lengths, scratch.simd_order,
                            scratch.simd_buckets);
    scratch.simd_engine.set_pattern(codes);
    align::MyersSimdEngine::PackedWindow lanes[kLanes];
    align::MyersSimdEngine::Hit hits[kLanes];
    for (const align::LengthBucket& bucket : scratch.simd_buckets) {
        for (std::uint32_t i = 0; i < bucket.count; i += kLanes) {
            const std::size_t count =
                std::min<std::size_t>(kLanes, bucket.count - i);
            const std::uint32_t* order =
                scratch.simd_order.data() + bucket.first + i;
            for (std::size_t k = 0; k < count; ++k) {
                lanes[k] = {arena.data(), jobs[order[k]].arena_base};
            }
            scratch.simd_engine.best_in_bounded_multi(
                lanes, count, bucket.length, delta, hits);
            stages.verify_ops +=
                scratch.simd_engine.last_word_ops() * w.simd_word;
            if (count == kLanes) {
                ++stages.simd_batches;
                stages.simd_lanes += kLanes;
            } else {
                stages.simd_tail += count;
            }
            for (std::size_t k = 0; k < count; ++k) {
                jobs[order[k]].distance = hits[k].distance;
                if (hits[k].early_exit) ++stages.myers_early_exits;
            }
        }
    }
    // --- Replay in candidate order: identical pushes, identical first-n
    // cap point, as if each scan had run inline.
    for (const VerifyJob& job : jobs) {
        if (out.size() >= config.max_locations_per_read) break;
        accept(job.position, job.distance);
    }
}

} // namespace

std::uint64_t map_read_workitem(const index::FmIndex& fm,
                                const genomics::Reference& reference,
                                const filter::Seeder& seeder,
                                const genomics::Read& read,
                                std::uint32_t delta,
                                const KernelConfig& config,
                                std::vector<ReadMapping>& out,
                                KernelScratch& scratch,
                                StageTotals* stages) {
    out.clear();
    StageTotals local;
    const std::uint64_t occ_words_before =
        index::FmIndex::thread_occ_words();
    map_strand(fm, reference, seeder, read.codes,
               genomics::Strand::Forward, delta, config, out, scratch,
               local);
    read.reverse_complement(scratch.rc_codes);
    map_strand(fm, reference, seeder, scratch.rc_codes,
               genomics::Strand::Reverse, delta, config, out, scratch,
               local);
    std::sort(out.begin(), out.end(),
              [](const ReadMapping& a, const ReadMapping& b) {
                  return a.position != b.position
                             ? a.position < b.position
                             : a.strand < b.strand;
              });
    // Streaming flows can verify (and accept) the same window through
    // several seeds; the host-side merge removes the duplicates.
    out.erase(std::unique(out.begin(), out.end(),
                          [](const ReadMapping& a, const ReadMapping& b) {
                              return a.position == b.position &&
                                     a.strand == b.strand;
                          }),
              out.end());
    if (stages != nullptr) *stages += local;
    if (auto* m = obs::metrics()) {
        m->histogram("kernel.candidates_per_read")
            .observe(static_cast<double>(local.candidates));
        m->counter("kernel.zero_certified_strands")
            .add(local.zero_certified);
        m->counter("kernel.anchor_locates").add(local.anchor_locates);
        m->counter("kernel.text_settled_suffixes").add(local.text_settled);
        m->counter("kernel.raw_seed_hits").add(local.raw_hits);
        m->counter("kernel.candidate_windows").add(local.candidates);
        m->counter("kernel.mappings_accepted").add(local.accepted);
        m->counter("kernel.myers_early_exits").add(local.myers_early_exits);
        m->counter("kernel.windows_coalesced").add(local.windows_coalesced);
        m->counter("kernel.simd_batches").add(local.simd_batches);
        if (local.simd_lanes + local.simd_tail > 0) {
            // Fraction of this read's Myers-verified windows that ran
            // inside full lane batches (the rest filled partial batches
            // at a bucket's tail). Low values mean the candidate windows
            // fragmented across many distinct clamped lengths.
            m->histogram("kernel.simd_lane_occupancy")
                .observe(static_cast<double>(local.simd_lanes) /
                         static_cast<double>(local.simd_lanes +
                                             local.simd_tail));
        }
        m->counter("index.occ_words_scanned")
            .add(index::FmIndex::thread_occ_words() - occ_words_before);
        if (scratch.warm) m->counter("kernel.scratch_reuses").add(1);
        if (local.raw_hits > 0) {
            // Diagonal-collapse effectiveness: verified windows per raw
            // seed hit (1.0 = no duplicate work removed).
            m->histogram("kernel.dedup_ratio")
                .observe(static_cast<double>(local.candidates) /
                         static_cast<double>(local.raw_hits));
        }
    }
    scratch.warm = true;
    return local.total_ops();
}

std::uint64_t kernel_scratch_bytes(const filter::Seeder& seeder,
                                   std::size_t read_length,
                                   std::uint32_t delta) {
    const std::uint64_t window_bytes = read_length + 2 * delta;
    const std::uint64_t myers_words = (read_length + 63) / 64;
    const std::uint64_t myers_bytes = myers_words * 8 * (4 + 4); // Peq+state
    const std::uint64_t dedup_cache = 64 * 4; // recent-diagonal ring
    return seeder.scratch_bound(read_length, delta) + window_bytes +
           myers_bytes + dedup_cache + 128 /*misc locals*/;
}

} // namespace repute::core
