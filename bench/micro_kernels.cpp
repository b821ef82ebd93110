// Microbenchmarks and ablations (google-benchmark).
//
// Covers the design choices DESIGN.md calls out:
//   * filtration ablation: uniform vs heuristic (CORAL) vs full OSS vs
//     REPUTE's memory-optimized DP — time AND produced candidate count;
//   * verification ablation: Myers bit-vector vs banded DP vs full DP;
//   * CIGAR annotation: the bit-vector traceback SAM output pays per
//     mapping;
//   * index primitives: exact backward search, locate, approximate
//     search tree growth with the error budget (the Yara cost driver);
//   * suffix-array construction.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>

#include "align/edit_distance.hpp"
#include "align/myers.hpp"
#include "align/myers_simd.hpp"
#include "align/prefilter.hpp"
#include "core/cigar.hpp"
#include "filter/candidates.hpp"
#include "filter/frequency_scanner.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "filter/optimal_seeder.hpp"
#include "filter/uniform_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/approx_search.hpp"
#include "index/fm_index.hpp"
#include "index/suffix_array.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"

namespace {

using namespace repute;

struct MicroWorkload {
    genomics::Reference reference;
    std::unique_ptr<index::FmIndex> fm;
    genomics::SimulatedReads reads;
};

const MicroWorkload& workload() {
    static const MicroWorkload w = [] {
        genomics::GenomeSimConfig gconfig;
        gconfig.length = 1'000'000;
        gconfig.seed = 7;
        MicroWorkload mw{genomics::simulate_genome(gconfig), nullptr, {}};
        mw.fm = std::make_unique<index::FmIndex>(mw.reference, 4);
        genomics::ReadSimConfig rconfig;
        rconfig.n_reads = 512;
        rconfig.read_length = 100;
        rconfig.max_errors = 5;
        mw.reads = genomics::simulate_reads(mw.reference, rconfig);
        return mw;
    }();
    return w;
}

// ------------------------------------------------- filtration ablation

/// 150 bp reads for the paper's hardest cell (delta 7). There the
/// exploration window E = 150 - 8 * s_min is wider than s_min for
/// s_min <= 16, so consecutive iterations' windows overlap and the
/// end-major DP shares scans between them; at (100, delta 5) with
/// s_min >= 14 the windows do not overlap.
const genomics::ReadBatch& reads150() {
    static const genomics::SimulatedReads sim = [] {
        genomics::ReadSimConfig rconfig;
        rconfig.n_reads = 512;
        rconfig.read_length = 150;
        rconfig.max_errors = 7;
        return genomics::simulate_reads(workload().reference, rconfig);
    }();
    return sim.batch;
}

template <typename SeederT>
void bm_seeder(benchmark::State& state, const genomics::ReadBatch& batch,
               std::uint32_t delta) {
    const auto& w = workload();
    const SeederT seeder(static_cast<std::uint32_t>(state.range(0)));
    std::size_t i = 0;
    std::uint64_t candidates = 0, reads = 0;
    for (auto _ : state) {
        const auto& read = batch.reads[i++ % batch.size()];
        const auto plan = seeder.select(*w.fm, read.codes, delta);
        benchmark::DoNotOptimize(plan.total_candidates);
        candidates += plan.total_candidates;
        ++reads;
    }
    state.counters["candidates/read"] =
        static_cast<double>(candidates) / static_cast<double>(reads);
}

void BM_Seeder_Uniform(benchmark::State& state) {
    bm_seeder<filter::UniformSeeder>(state, workload().reads.batch, 5);
}
void BM_Seeder_Heuristic(benchmark::State& state) {
    bm_seeder<filter::HeuristicSeeder>(state, workload().reads.batch, 5);
}
void BM_Seeder_OssFull(benchmark::State& state) {
    bm_seeder<filter::OptimalSeeder>(state, workload().reads.batch, 5);
}
void BM_Seeder_ReputeDp(benchmark::State& state) {
    bm_seeder<filter::MemoryOptimizedSeeder>(state, workload().reads.batch,
                                             5);
}
void BM_Seeder_OssFull_n150d7(benchmark::State& state) {
    bm_seeder<filter::OptimalSeeder>(state, reads150(), 7);
}
void BM_Seeder_ReputeDp_n150d7(benchmark::State& state) {
    bm_seeder<filter::MemoryOptimizedSeeder>(state, reads150(), 7);
}
BENCHMARK(BM_Seeder_Uniform)->Arg(12);
BENCHMARK(BM_Seeder_Heuristic)->Arg(12);
BENCHMARK(BM_Seeder_OssFull)->Arg(12);
BENCHMARK(BM_Seeder_ReputeDp)->Arg(10)->Arg(12)->Arg(14)->Arg(16);
BENCHMARK(BM_Seeder_OssFull_n150d7)->Arg(14);
BENCHMARK(BM_Seeder_ReputeDp_n150d7)->Arg(12)->Arg(14)->Arg(16);

// ----------------------------------------------- verification ablation

void BM_Verify_Myers(benchmark::State& state) {
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    const align::MyersMatcher matcher(read.codes);
    const auto window = w.reference.sequence().extract(
        w.reads.origins[3].position, 110);
    for (auto _ : state) {
        benchmark::DoNotOptimize(matcher.best_in(window).distance);
    }
}
void BM_Verify_BandedDp(benchmark::State& state) {
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    const auto window = w.reference.sequence().extract(
        w.reads.origins[3].position, 110);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            align::banded_semiglobal_distance(read.codes, window, 5));
    }
}
void BM_Verify_FullDp(benchmark::State& state) {
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    const auto window = w.reference.sequence().extract(
        w.reads.origins[3].position, 110);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            align::semiglobal_distance(read.codes, window));
    }
}
BENCHMARK(BM_Verify_Myers);
BENCHMARK(BM_Verify_BandedDp);
BENCHMARK(BM_Verify_FullDp);

// ---------------------------------------------------- CIGAR annotation

/// annotate_mapping on simulated reads at their planted origins (both
/// strands, up to delta edits): what SAM output pays per emitted
/// mapping. Args: read length, delta.
void BM_Cigar_Annotate(benchmark::State& state) {
    const auto& w = workload();
    const auto delta = static_cast<std::uint32_t>(state.range(1));
    genomics::ReadSimConfig rconfig;
    rconfig.n_reads = 256;
    rconfig.read_length = static_cast<std::size_t>(state.range(0));
    rconfig.max_errors = delta;
    rconfig.seed = 9;
    const auto sim = genomics::simulate_reads(w.reference, rconfig);
    std::vector<core::ReadMapping> mappings(sim.batch.size());
    for (std::size_t r = 0; r < mappings.size(); ++r) {
        mappings[r].position = sim.origins[r].position;
        mappings[r].strand = sim.origins[r].strand;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const std::size_t r = i++ % mappings.size();
        benchmark::DoNotOptimize(core::annotate_mapping(
            w.reference, sim.batch.reads[r], mappings[r], delta));
    }
}
BENCHMARK(BM_Cigar_Annotate)
    ->Args({100, 5})
    ->Args({150, 7})
    ->Args({512, 15});

// ---------------------------------------------- verification funnel

void BM_Verify_MyersBanded(benchmark::State& state) {
    // Same accept-case window as BM_Verify_Myers, δ-banded.
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    const align::MyersMatcher matcher(read.codes);
    const auto window = w.reference.sequence().extract(
        w.reads.origins[3].position, 110);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            matcher.best_in_bounded(window, 5).distance);
    }
}
BENCHMARK(BM_Verify_MyersBanded);

void BM_Verify_MyersBandedBatched(benchmark::State& state) {
    // The same accept-case window in all MyersSimdEngine::kLanes lanes:
    // identical per-lane work to BM_Verify_MyersBanded, so
    //   speedup = scalar_time / (batched_time / kLanes)
    // is the honest per-candidate gain of the lane-batched engine (the
    // ci/check_bench.py ratio gate holds it at >= 2x).
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    const align::MyersSimdEngine engine(read.codes);
    constexpr std::size_t kLanes = align::MyersSimdEngine::kLanes;
    const auto window = w.reference.sequence().extract(
        w.reads.origins[3].position, 110);
    const std::uint8_t* texts[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) texts[l] = window.data();
    align::MyersMatcher::BoundedHit hits[kLanes];
    for (auto _ : state) {
        engine.best_in_bounded_multi(texts, kLanes, window.size(), 5,
                                     hits);
        benchmark::DoNotOptimize(hits[0].distance);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kLanes));
    state.SetLabel(align::myers_simd_backend());
}
BENCHMARK(BM_Verify_MyersBandedBatched);

void BM_Verify_MyersBatchedMixedLengths(benchmark::State& state) {
    // The dispatch path under length fragmentation: a candidate mix
    // whose clamped window lengths are deliberately varied (reference-
    // edge clamps in miniature), run through bucket_by_length + full
    // batches + scalar tail exactly as the kernel dispatches. Items are
    // verified windows, so ns/item is comparable with the pure-batch
    // and pure-scalar benches; the gap between them is the cost of
    // partial-bucket tails at this occupancy.
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    const align::MyersSimdEngine engine(read.codes);
    const align::MyersMatcher matcher(read.codes);
    constexpr std::size_t kLanes = align::MyersSimdEngine::kLanes;
    // 29 windows over 4 clamped lengths, interleaved: buckets of 13,
    // 9, 5 and 2 jobs — three full batches, every bucket with a tail.
    const std::uint32_t mix_lengths[] = {110, 107, 110, 103, 110, 97,
                                         107, 110, 103, 110};
    std::vector<std::vector<std::uint8_t>> windows;
    std::vector<std::uint32_t> lengths;
    util::Xoshiro256 rng(29);
    for (int i = 0; i < 29; ++i) {
        const std::uint32_t len = mix_lengths[i % 10];
        windows.push_back(w.reference.sequence().extract(
            w.reads.origins[3].position + rng.bounded(4), len));
        lengths.push_back(len);
    }
    std::vector<std::uint32_t> order;
    std::vector<align::LengthBucket> buckets;
    const std::uint8_t* texts[kLanes];
    align::MyersMatcher::BoundedHit hits[kLanes];
    std::uint64_t accepted = 0;
    for (auto _ : state) {
        align::bucket_by_length(lengths, order, buckets);
        for (const auto& bucket : buckets) {
            std::uint32_t i = 0;
            while (bucket.count - i >= kLanes) {
                for (std::size_t l = 0; l < kLanes; ++l) {
                    texts[l] = windows[order[bucket.first + i + l]].data();
                }
                engine.best_in_bounded_multi(texts, kLanes, bucket.length,
                                             5, hits);
                for (std::size_t l = 0; l < kLanes; ++l) {
                    accepted += hits[l].distance <= 5 ? 1 : 0;
                }
                i += kLanes;
            }
            for (; i < bucket.count; ++i) {
                const auto& win = windows[order[bucket.first + i]];
                accepted +=
                    matcher.best_in_bounded(win, 5).distance <= 5 ? 1 : 0;
            }
        }
    }
    benchmark::DoNotOptimize(accepted);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 29);
}
BENCHMARK(BM_Verify_MyersBatchedMixedLengths);

void BM_Prefilter_RejectRandom(benchmark::State& state) {
    // The prefilter's money case: a false-positive candidate window,
    // killed without running Myers at all.
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    align::Prefilter filter;
    filter.set_pattern(read.codes);
    // A window the read does NOT come from (origin of another read).
    std::vector<std::uint64_t> words(util::PackedDna::packed_word_count(110));
    w.reference.sequence().extract_words(w.reads.origins[200].position,
                                         110, words.data());
    for (auto _ : state) {
        benchmark::DoNotOptimize(filter.admits(words.data(), 0, 110, 5));
    }
}
BENCHMARK(BM_Prefilter_RejectRandom);

void BM_Prefilter_AcceptPlanted(benchmark::State& state) {
    // True-positive window: the early accept exit fires on the group
    // containing the real alignment.
    const auto& w = workload();
    const auto& read = w.reads.batch.reads[3];
    align::Prefilter filter;
    filter.set_pattern(read.codes);
    std::vector<std::uint64_t> words(util::PackedDna::packed_word_count(110));
    w.reference.sequence().extract_words(w.reads.origins[3].position, 110,
                                         words.data());
    for (auto _ : state) {
        benchmark::DoNotOptimize(filter.admits(words.data(), 0, 110, 5));
    }
}
BENCHMARK(BM_Prefilter_AcceptPlanted);

// The table1-workload candidate mix: every candidate window the DP
// seeder produces for the first 64 reads on BOTH strands, exactly as
// the kernel verifies them (the reverse-complement pass contributes
// most of the false positives — true hits and false candidates appear
// in their real ~1:1 ratio). _Baseline is the pre-funnel path (byte
// window + full best_in per candidate); _Full is the three-layer
// funnel. The BENCH_kernels.json acceptance gate compares these two.
struct FunnelMix {
    struct PerStrand {
        std::vector<std::uint8_t> codes;
        filter::CandidateSet candidates;
    };
    std::vector<PerStrand> jobs;
};

const FunnelMix& funnel_mix() {
    static const FunnelMix mix = [] {
        const auto& w = workload();
        const filter::MemoryOptimizedSeeder seeder(12);
        filter::CandidateConfig cand_config;
        cand_config.max_hits_per_seed = 2048;
        cand_config.coalesce_windows = true;
        FunnelMix m;
        std::vector<std::uint8_t> rc;
        for (std::size_t r = 0; r < 64; ++r) {
            const auto& read = w.reads.batch.reads[r];
            read.reverse_complement(rc);
            const auto& rc_ref = rc;
            for (const auto* codes : {&read.codes, &rc_ref}) {
                const auto plan = seeder.select(*w.fm, *codes, 5);
                FunnelMix::PerStrand job;
                job.codes = *codes;
                job.candidates = filter::gather_candidates(
                    *w.fm, plan,
                    static_cast<std::uint32_t>(codes->size()), 5,
                    cand_config);
                m.jobs.push_back(std::move(job));
            }
        }
        return m;
    }();
    return mix;
}

void BM_VerifyFunnel_Baseline(benchmark::State& state) {
    const auto& w = workload();
    const auto& mix = funnel_mix();
    const auto text_len = static_cast<std::uint32_t>(w.fm->size());
    align::MyersMatcher matcher;
    std::vector<std::uint8_t> window;
    std::size_t i = 0;
    std::int64_t verified = 0;
    std::uint64_t accepted = 0;
    for (auto _ : state) {
        const auto& pr = mix.jobs[i++ % mix.jobs.size()];
        matcher.set_pattern(pr.codes);
        const auto n = static_cast<std::uint32_t>(pr.codes.size());
        for (const std::uint32_t start : pr.candidates.positions) {
            const std::uint32_t win_lo = start >= 5 ? start - 5 : 0;
            const std::uint32_t win_len =
                std::min<std::uint32_t>(n + 10, text_len - win_lo);
            if (win_len + 5 < n) continue;
            window.resize(win_len);
            w.reference.sequence().extract(win_lo, win_len, window.data());
            const auto hit = matcher.best_in(window);
            accepted += hit.distance <= 5 ? 1 : 0;
            ++verified;
        }
    }
    benchmark::DoNotOptimize(accepted);
    state.SetItemsProcessed(verified);
}
BENCHMARK(BM_VerifyFunnel_Baseline);

void BM_VerifyFunnel_Full(benchmark::State& state) {
    const auto& w = workload();
    const auto& mix = funnel_mix();
    const auto text_len = static_cast<std::uint32_t>(w.fm->size());
    align::MyersMatcher matcher;
    align::Prefilter filter;
    std::vector<std::uint8_t> window;
    std::vector<std::uint64_t> words;
    std::size_t i = 0;
    std::int64_t verified = 0;
    std::uint64_t accepted = 0;
    for (auto _ : state) {
        const auto& pr = mix.jobs[i++ % mix.jobs.size()];
        filter.set_pattern(pr.codes);
        bool matcher_set = false; // deferred, as in the kernel
        const auto n = static_cast<std::uint32_t>(pr.codes.size());
        for (const auto& group : pr.candidates.groups) {
            bool have_words = false, have_bytes = false;
            for (std::uint32_t ci = 0; ci < group.count; ++ci) {
                const std::uint32_t start =
                    pr.candidates.positions[group.first + ci];
                const std::uint32_t win_lo = start >= 5 ? start - 5 : 0;
                const std::uint32_t win_len =
                    std::min<std::uint32_t>(n + 10, text_len - win_lo);
                if (win_len + 5 < n) continue;
                ++verified;
                if (!have_words) {
                    words.resize(
                        util::PackedDna::packed_word_count(group.len));
                    w.reference.sequence().extract_words(
                        group.lo, group.len, words.data());
                    have_words = true;
                }
                if (!filter.admits(words.data(), win_lo - group.lo,
                                   win_len, 5)) {
                    continue;
                }
                if (filter.last_exact()) {
                    ++accepted; // certified distance 0, Myers skipped
                    continue;
                }
                if (!have_bytes) {
                    window.resize(group.len);
                    w.reference.sequence().extract(group.lo, group.len,
                                                   window.data());
                    have_bytes = true;
                }
                const std::span<const std::uint8_t> text{
                    window.data() + (win_lo - group.lo), win_len};
                if (!matcher_set) {
                    matcher.set_pattern(pr.codes);
                    matcher_set = true;
                }
                const auto hit = matcher.best_in_bounded(text, 5);
                accepted += hit.distance <= 5 ? 1 : 0;
            }
        }
    }
    benchmark::DoNotOptimize(accepted);
    state.SetItemsProcessed(verified);
}
BENCHMARK(BM_VerifyFunnel_Full);

void BM_VerifyFunnel_FullSimd(benchmark::State& state) {
    // BM_VerifyFunnel_Full with the kernel's deferred lane-batched
    // verification on top: Myers survivors queue as jobs, are bucketed
    // by clamped length, and run kLanes at a time with a scalar tail.
    // On this real candidate mix most strands carry a single window
    // (only multimapping repeat reads fill batches), so the value of
    // this bench is pinning the dispatch overhead at realistic — low —
    // occupancy; BM_Verify_MyersBandedBatched shows the full-lane gain.
    const auto& w = workload();
    const auto& mix = funnel_mix();
    const auto text_len = static_cast<std::uint32_t>(w.fm->size());
    constexpr std::size_t kLanes = align::MyersSimdEngine::kLanes;
    align::MyersSimdEngine engine;
    align::MyersMatcher matcher;
    align::Prefilter filter;
    std::vector<std::uint8_t> arena;
    std::vector<std::uint64_t> words;
    struct Job {
        std::uint32_t arena_off, win_len;
    };
    std::vector<Job> jobs;
    std::vector<std::uint32_t> lengths, order;
    std::vector<align::LengthBucket> buckets;
    std::size_t i = 0;
    std::int64_t verified = 0;
    std::uint64_t accepted = 0;
    for (auto _ : state) {
        const auto& pr = mix.jobs[i++ % mix.jobs.size()];
        filter.set_pattern(pr.codes);
        bool engine_set = false, matcher_set = false;
        const auto n = static_cast<std::uint32_t>(pr.codes.size());
        arena.clear();
        jobs.clear();
        for (const auto& group : pr.candidates.groups) {
            bool have_words = false, have_bytes = false;
            std::uint32_t group_off = 0;
            for (std::uint32_t ci = 0; ci < group.count; ++ci) {
                const std::uint32_t start =
                    pr.candidates.positions[group.first + ci];
                const std::uint32_t win_lo = start >= 5 ? start - 5 : 0;
                const std::uint32_t win_len =
                    std::min<std::uint32_t>(n + 10, text_len - win_lo);
                if (win_len + 5 < n) continue;
                ++verified;
                if (!have_words) {
                    words.resize(
                        util::PackedDna::packed_word_count(group.len));
                    w.reference.sequence().extract_words(
                        group.lo, group.len, words.data());
                    have_words = true;
                }
                if (!filter.admits(words.data(), win_lo - group.lo,
                                   win_len, 5)) {
                    continue;
                }
                if (filter.last_exact()) {
                    ++accepted;
                    continue;
                }
                if (!have_bytes) {
                    group_off = static_cast<std::uint32_t>(arena.size());
                    arena.resize(arena.size() + group.len);
                    w.reference.sequence().extract(
                        group.lo, group.len, arena.data() + group_off);
                    have_bytes = true;
                }
                jobs.push_back({group_off + (win_lo - group.lo), win_len});
            }
        }
        lengths.clear();
        for (const auto& job : jobs) lengths.push_back(job.win_len);
        align::bucket_by_length(lengths, order, buckets);
        const std::uint8_t* texts[kLanes];
        align::MyersMatcher::BoundedHit hits[kLanes];
        for (const auto& bucket : buckets) {
            std::uint32_t k = 0;
            while (bucket.count - k >= kLanes) {
                for (std::size_t l = 0; l < kLanes; ++l) {
                    texts[l] = arena.data() +
                               jobs[order[bucket.first + k + l]].arena_off;
                }
                if (!engine_set) {
                    engine.set_pattern(pr.codes);
                    engine_set = true;
                }
                engine.best_in_bounded_multi(texts, kLanes, bucket.length,
                                             5, hits);
                for (std::size_t l = 0; l < kLanes; ++l) {
                    accepted += hits[l].distance <= 5 ? 1 : 0;
                }
                k += kLanes;
            }
            for (; k < bucket.count; ++k) {
                const auto& job = jobs[order[bucket.first + k]];
                if (!matcher_set) {
                    matcher.set_pattern(pr.codes);
                    matcher_set = true;
                }
                const std::span<const std::uint8_t> text{
                    arena.data() + job.arena_off, job.win_len};
                accepted +=
                    matcher.best_in_bounded(text, 5).distance <= 5 ? 1 : 0;
            }
        }
    }
    benchmark::DoNotOptimize(accepted);
    state.SetItemsProcessed(verified);
}
BENCHMARK(BM_VerifyFunnel_FullSimd);

// ------------------------------------------------------ index primitives

// FM hot path: the filtration stage is dominated by occ()/extend(), so
// these four benches are the recorded perf baseline (BENCH_kernels.json)
// that every index-layout change is judged against.

void BM_FmOcc(benchmark::State& state) {
    const auto& w = workload();
    util::Xoshiro256 rng(11);
    const auto rows = static_cast<std::uint32_t>(w.fm->size() + 1);
    std::vector<std::uint32_t> where(1024);
    for (auto& r : where) {
        r = static_cast<std::uint32_t>(rng.bounded(rows + 1));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            w.fm->occ(static_cast<std::uint8_t>(i & 3), where[i & 1023]));
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FmOcc);

void BM_FmBackwardExtend(benchmark::State& state) {
    // Full backward search of read-length patterns one extend at a time
    // (2 occ per extend) — the suffix-frequency scan inner loop.
    const auto& w = workload();
    util::Xoshiro256 rng(12);
    std::vector<std::vector<std::uint8_t>> patterns;
    for (int i = 0; i < 64; ++i) {
        const std::size_t pos = rng.bounded(w.reference.size() - 100);
        patterns.push_back(w.reference.sequence().extract(pos, 100));
    }
    std::size_t i = 0;
    std::int64_t extends = 0;
    for (auto _ : state) {
        const auto& p = patterns[i++ & 63];
        auto range = w.fm->whole_range();
        for (std::size_t k = p.size(); k-- > 0 && !range.empty();) {
            range = w.fm->extend(range, p[k]);
            ++extends;
        }
        benchmark::DoNotOptimize(range);
    }
    state.SetItemsProcessed(extends);
}
BENCHMARK(BM_FmBackwardExtend);

void BM_FmSuffixFrequencies(benchmark::State& state) {
    // One memopt-DP-style scan: frequencies of every suffix of
    // read[12, 60) ending at 60 — the per-iteration unit of work of the
    // paper's filtration DP.
    const auto& w = workload();
    std::size_t i = 0;
    std::vector<std::uint32_t> freqs(48);
    for (auto _ : state) {
        const auto& read = w.reads.batch.reads[i++ % w.reads.batch.size()];
        const filter::FrequencyScanner scanner(*w.fm, read.codes);
        scanner.suffix_frequencies(12, 60, freqs);
        benchmark::DoNotOptimize(freqs.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FmSuffixFrequencies);

void BM_FmExactSearch(benchmark::State& state) {
    const auto& w = workload();
    const auto len = static_cast<std::size_t>(state.range(0));
    util::Xoshiro256 rng(3);
    std::vector<std::vector<std::uint8_t>> patterns;
    for (int i = 0; i < 64; ++i) {
        const std::size_t pos = rng.bounded(w.reference.size() - len);
        patterns.push_back(w.reference.sequence().extract(pos, len));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            w.fm->search(patterns[i++ % patterns.size()]).count());
    }
}
BENCHMARK(BM_FmExactSearch)->Arg(12)->Arg(20)->Arg(32);

void BM_FmLocate(benchmark::State& state) {
    const auto& w = workload();
    util::Xoshiro256 rng(4);
    std::vector<index::FmIndex::Range> ranges;
    for (int i = 0; i < 64; ++i) {
        const std::size_t pos = rng.bounded(w.reference.size() - 16);
        ranges.push_back(
            w.fm->search(w.reference.sequence().extract(pos, 16)));
    }
    std::vector<std::uint32_t> hits;
    std::size_t i = 0;
    for (auto _ : state) {
        hits.clear();
        w.fm->locate_range(ranges[i++ % ranges.size()], 16, hits);
        benchmark::DoNotOptimize(hits.data());
    }
}
BENCHMARK(BM_FmLocate);

void BM_ApproxSearch(benchmark::State& state) {
    const auto& w = workload();
    const auto errors = static_cast<std::uint32_t>(state.range(0));
    util::Xoshiro256 rng(5);
    std::vector<std::vector<std::uint8_t>> segments;
    for (int i = 0; i < 32; ++i) {
        const std::size_t pos = rng.bounded(w.reference.size() - 33);
        segments.push_back(w.reference.sequence().extract(pos, 33));
    }
    std::size_t i = 0;
    std::uint64_t nodes = 0, calls = 0;
    for (auto _ : state) {
        index::ApproxSearchStats stats;
        benchmark::DoNotOptimize(index::approximate_search(
            *w.fm, segments[i++ % segments.size()], errors, &stats));
        nodes += stats.visited_nodes;
        ++calls;
    }
    state.counters["nodes/call"] =
        static_cast<double>(nodes) / static_cast<double>(calls);
}
BENCHMARK(BM_ApproxSearch)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// ---------------------------------------------------------- construction

void BM_SuffixArraySais(benchmark::State& state) {
    genomics::GenomeSimConfig config;
    config.length = static_cast<std::size_t>(state.range(0));
    const auto ref = genomics::simulate_genome(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            index::build_suffix_array(ref.sequence()));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SuffixArraySais)->Arg(100'000)->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

} // namespace
