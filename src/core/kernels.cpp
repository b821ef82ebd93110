#include "core/kernels.hpp"

#include <algorithm>

#include "align/myers.hpp"
#include "filter/candidates.hpp"
#include "obs/trace.hpp"
#include "util/packed_dna.hpp"

namespace repute::core {

StageTotals& StageTotals::operator+=(const StageTotals& other) noexcept {
    obs::StageCounters::operator+=(other);
    zero_certified += other.zero_certified;
    raw_hits += other.raw_hits;
    accepted += other.accepted;
    prefilter_rejects += other.prefilter_rejects;
    prefilter_exacts += other.prefilter_exacts;
    myers_early_exits += other.myers_early_exits;
    windows_coalesced += other.windows_coalesced;
    simd_batches += other.simd_batches;
    simd_lanes += other.simd_lanes;
    simd_tail += other.simd_tail;
    return *this;
}

namespace {

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
        std::uint64_t extends = 0;
        std::uint64_t jumps = 0;
        const bool certified = filter::zero_certificate(
            fm, codes, delta, config.s_min, extends, jumps);
        stages.filtration_ops +=
            extends * w.fm_extend + jumps * w.qgram_lookup;
        if (certified) {
            ++stages.zero_certified;
            return;
        }
    }

    // --- Filtration: DP (or heuristic) seed selection.
    filter::SeedPlan& plan = scratch.plan;
    seeder.select(fm, codes, delta, plan, scratch.seeder);
    stages.filtration_ops += plan.fm_extends * w.fm_extend +
                             plan.dp_cells * w.dp_cell +
                             plan.qgram_jumps * w.qgram_lookup;

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
    const std::uint64_t locate_cost =
        w.locate_base + w.locate_step * (fm.sa_sample() - 1) / 2;
    stages.locate_ops += candidates.located_hits * locate_cost;
    stages.verify_ops += candidates.raw_hits * w.per_candidate;
    stages.raw_hits += candidates.raw_hits;
    stages.candidates += candidates.positions.size();

    // --- Verification: three-layer funnel over each candidate window.
    // Layer 1 (prefilter) kills most false candidates with packed
    // XOR/AND/popcount words; layer 2 (banded Myers) verifies survivors
    // touching only the words inside the δ-band and bailing once the
    // decision is provably fixed; layer 3 (coalescing) lets overlapping
    // windows share one reference fetch. Every layer is output-neutral:
    // the accept decisions, distances, and order match the plain
    // best_in() loop exactly.
    align::MyersMatcher& matcher = scratch.matcher;
    // Deferred until a candidate actually reaches Myers: on workloads
    // where the prefilter settles every window (reject or exact
    // certificate) the Peq build is pure overhead.
    bool matcher_set = false;
    if (config.prefilter) {
        scratch.prefilter.set_pattern(codes);
    } else {
        matcher.set_pattern(codes);
        matcher_set = true;
    }
    const auto n = static_cast<std::uint32_t>(codes.size());
    const auto text_len = static_cast<std::uint32_t>(fm.size());
    std::vector<std::uint8_t>& window = scratch.window;
    window.reserve(n + 2 * delta);

    // Lane-batched verification: instead of scanning each surviving
    // window inline, stage its bytes and queue a VerifyJob, then
    // dispatch jobs bucketed by clamped window length so every lane of
    // a batch shares one band schedule. Decisions are replayed in
    // candidate order afterwards, so output (accept set, distances,
    // first-n cap point) is byte-identical to the inline loop. Only
    // meaningful on top of the banded scan — the engine replicates
    // best_in_bounded, not the unbounded best_in.
    const bool use_simd =
        config.simd_verification && config.banded_verification;
    std::vector<std::uint8_t>& arena = scratch.simd_arena;
    std::vector<VerifyJob>& jobs = scratch.simd_jobs;
    std::vector<VerifyDecision>& decisions = scratch.simd_decisions;
    if (use_simd) {
        arena.clear();
        jobs.clear();
        decisions.clear();
    }
    bool engine_set = false;

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

        // Both extractions are lazy: the packed words only when the
        // prefilter runs, the byte window only once a candidate
        // survives to Myers. In batched mode the byte fetch goes
        // straight into the arena (still one fetch per group) because
        // `window` is recycled before the deferred scans run.
        bool have_words = false;
        bool have_bytes = false;
        std::uint32_t group_arena_off = 0;

        for (std::uint32_t ci = 0; ci < group.count; ++ci) {
            if (out.size() >= config.max_locations_per_read) break;
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
            const std::uint32_t off = win_lo - group.lo;

            bool certified_exact = false;
            if (config.prefilter) {
                if (!have_words) {
                    scratch.win_words.resize(
                        util::PackedDna::packed_word_count(group.len));
                    reference.sequence().extract_words(
                        group.lo, group.len, scratch.win_words.data());
                    have_words = true;
                }
                const bool admit = scratch.prefilter.admits(
                    scratch.win_words.data(), off, win_len, delta);
                stages.verify_ops +=
                    scratch.prefilter.last_word_ops() * w.prefilter_word;
                if (!admit) {
                    ++stages.prefilter_rejects;
                    continue;
                }
                certified_exact = scratch.prefilter.last_exact();
            }

            std::uint32_t distance;
            if (certified_exact) {
                // The prefilter found the full pattern verbatim in the
                // window: best_in() would return distance 0, so skip
                // the Myers scan entirely.
                distance = 0;
                ++stages.prefilter_exacts;
                if (use_simd) {
                    // Defer even the certain accept: decisions replay
                    // in candidate order, and an inline push here would
                    // jump the queue ahead of earlier pending jobs.
                    decisions.push_back({start, -1});
                    continue;
                }
            } else if (use_simd) {
                if (!have_bytes) {
                    group_arena_off =
                        static_cast<std::uint32_t>(arena.size());
                    arena.resize(arena.size() + group.len);
                    reference.sequence().extract(
                        group.lo, group.len,
                        arena.data() + group_arena_off);
                    have_bytes = true;
                }
                jobs.push_back(
                    {start, group_arena_off + off, win_len, 0, false});
                decisions.push_back(
                    {start, static_cast<std::int32_t>(jobs.size()) - 1});
                continue;
            } else {
                if (!have_bytes) {
                    window.resize(group.len);
                    reference.sequence().extract(group.lo, group.len,
                                                 window.data());
                    have_bytes = true;
                }
                const std::span<const std::uint8_t> text{
                    window.data() + off, win_len};
                if (!matcher_set) {
                    matcher.set_pattern(codes);
                    matcher_set = true;
                }
                if (config.banded_verification) {
                    const auto hit = matcher.best_in_bounded(text, delta);
                    if (hit.early_exit) ++stages.myers_early_exits;
                    distance = hit.distance;
                } else {
                    distance = matcher.best_in(text).distance;
                }
                stages.verify_ops += matcher.last_word_ops() * w.myers_word;
            }

            if (distance <= delta) {
                ReadMapping m;
                // Report the candidate diagonal (clamped): the
                // alignment start lies within +-delta of it, and every
                // mapper in the comparison uses the same convention, so
                // the accuracy protocols compare like with like.
                m.position = start;
                m.edit_distance = static_cast<std::uint16_t>(distance);
                m.strand = strand;
                out.push_back(m);
                ++stages.accepted;
            }
        }
    }

    if (use_simd && !jobs.empty()) {
        // --- Batched dispatch: bucket jobs by clamped window length
        // (m and δ are fixed within a strand call, so equal-length
        // windows share the whole band schedule — zero lane
        // divergence), run full batches through the engine, and hand
        // partial-bucket tails to the scalar banded scan.
        constexpr std::size_t kLanes = align::MyersSimdEngine::kLanes;
        std::vector<std::uint32_t>& lengths = scratch.simd_job_lengths;
        lengths.clear();
        for (const VerifyJob& job : jobs) lengths.push_back(job.win_len);
        align::bucket_by_length(lengths, scratch.simd_order,
                                scratch.simd_buckets);
        const std::uint8_t* texts[kLanes];
        align::MyersMatcher::BoundedHit hits[kLanes];
        for (const align::LengthBucket& bucket : scratch.simd_buckets) {
            std::uint32_t i = 0;
            while (bucket.count - i >= kLanes) {
                for (std::size_t k = 0; k < kLanes; ++k) {
                    const VerifyJob& job =
                        jobs[scratch.simd_order[bucket.first + i + k]];
                    texts[k] = arena.data() + job.arena_off;
                }
                if (!engine_set) {
                    scratch.simd_engine.set_pattern(codes);
                    engine_set = true;
                }
                scratch.simd_engine.best_in_bounded_multi(
                    texts, kLanes, bucket.length, delta, hits);
                stages.verify_ops +=
                    scratch.simd_engine.last_word_ops() * w.simd_word;
                ++stages.simd_batches;
                stages.simd_lanes += kLanes;
                for (std::size_t k = 0; k < kLanes; ++k) {
                    VerifyJob& job =
                        jobs[scratch.simd_order[bucket.first + i + k]];
                    job.distance = hits[k].distance;
                    job.early_exit = hits[k].early_exit;
                    if (job.early_exit) ++stages.myers_early_exits;
                }
                i += kLanes;
            }
            for (; i < bucket.count; ++i) {
                VerifyJob& job = jobs[scratch.simd_order[bucket.first + i]];
                const std::span<const std::uint8_t> text{
                    arena.data() + job.arena_off, job.win_len};
                if (!matcher_set) {
                    matcher.set_pattern(codes);
                    matcher_set = true;
                }
                const auto hit = matcher.best_in_bounded(text, delta);
                job.distance = hit.distance;
                job.early_exit = hit.early_exit;
                if (job.early_exit) ++stages.myers_early_exits;
                stages.verify_ops += matcher.last_word_ops() * w.myers_word;
                ++stages.simd_tail;
            }
        }
    }
    if (use_simd) {
        // --- Replay decisions in candidate order: identical pushes,
        // identical first-n cap point, as if each scan had run inline.
        for (const VerifyDecision& decision : decisions) {
            if (out.size() >= config.max_locations_per_read) break;
            const std::uint32_t distance =
                decision.job < 0
                    ? 0
                    : jobs[static_cast<std::size_t>(decision.job)].distance;
            if (distance <= delta) {
                ReadMapping m;
                m.position = decision.position;
                m.edit_distance = static_cast<std::uint16_t>(distance);
                m.strand = strand;
                out.push_back(m);
                ++stages.accepted;
            }
        }
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
        m->counter("kernel.raw_seed_hits").add(local.raw_hits);
        m->counter("kernel.candidate_windows").add(local.candidates);
        m->counter("kernel.mappings_accepted").add(local.accepted);
        m->counter("kernel.prefilter_rejects").add(local.prefilter_rejects);
        m->counter("kernel.prefilter_exacts").add(local.prefilter_exacts);
        m->counter("kernel.myers_early_exits").add(local.myers_early_exits);
        m->counter("kernel.windows_coalesced").add(local.windows_coalesced);
        m->counter("kernel.simd_batches").add(local.simd_batches);
        if (local.simd_lanes + local.simd_tail > 0) {
            // Fraction of this read's Myers-verified windows that ran
            // inside full lane batches (the rest were partial-bucket
            // tails verified scalar). Low values mean the candidate
            // windows fragmented across many distinct clamped lengths.
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
    // Prefilter: packed pattern + packed window + one mask block and
    // its suffix array (2-bit packed words; the sliding registers and
    // running prefix live in kernel-private registers).
    const std::uint64_t packed_words = (read_length + 31) / 32;
    const std::uint64_t prefilter_bytes =
        (packed_words                      // pattern
         + (window_bytes + 31) / 32        // packed window
         + 2 * (delta + 1) * packed_words) // block + suffix
        * 8;
    const std::uint64_t dedup_cache = 64 * 4; // recent-diagonal ring
    return seeder.scratch_bound(read_length, delta) + window_bytes +
           myers_bytes + prefilter_bytes + dedup_cache +
           128 /*misc locals*/;
}

} // namespace repute::core
