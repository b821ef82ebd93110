// Lane-batched Myers verification: differential harness pinning the
// SIMD engine, which reads its windows from 2-bit packed words,
// byte-identical to the scalar banded scan across every geometry and
// base offset the kernel can produce, the bucketing permutation
// property, and full-mapper SAM equal to a reference verifier that
// scans every window alone with the unbanded scalar Myers.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "align/myers.hpp"
#include "align/myers_simd.hpp"
#include "core/kernels.hpp"
#include "core/repute_mapper.hpp"
#include "filter/candidates.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "genomics/sequence.hpp"
#include "index/fm_index.hpp"
#include "ocl/device.hpp"
#include "pipeline/sam_emitter.hpp"
#include "reference_verifier.hpp"
#include "util/packed_dna.hpp"
#include "util/prng.hpp"

namespace {

namespace align = repute::align;
namespace core = repute::core;
namespace filter = repute::filter;
namespace genomics = repute::genomics;
namespace index = repute::index;
namespace ocl = repute::ocl;
namespace pipeline = repute::pipeline;

using align::LengthBucket;
using align::MyersMatcher;
using align::MyersSimdEngine;
using PackedWindow = align::MyersSimdEngine::PackedWindow;
using repute::util::PackedDna;
using repute::util::Xoshiro256;

constexpr std::size_t kLanes = MyersSimdEngine::kLanes;

std::vector<std::uint8_t> random_codes(Xoshiro256& rng, std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& c : out) c = static_cast<std::uint8_t>(rng.bounded(4));
    return out;
}

std::vector<std::uint8_t> mutated_copy(Xoshiro256& rng,
                                       std::vector<std::uint8_t> base,
                                       std::uint32_t edits) {
    for (std::uint32_t e = 0; e < edits && !base.empty(); ++e) {
        const auto kind = rng.bounded(3);
        const std::size_t pos = rng.bounded(base.size());
        if (kind == 0) {
            base[pos] = static_cast<std::uint8_t>(
                (base[pos] + 1 + rng.bounded(3)) & 3);
        } else if (kind == 1) {
            base.insert(base.begin() + static_cast<std::ptrdiff_t>(pos),
                        static_cast<std::uint8_t>(rng.bounded(4)));
        } else {
            base.erase(base.begin() + static_cast<std::ptrdiff_t>(pos));
        }
    }
    return base;
}

/// Packs `window` so that it starts at base `offset` of the returned
/// words, behind `offset` noise bases — the shape of a candidate window
/// inside its coalesced group's arena words.
std::vector<std::uint64_t> pack_at(Xoshiro256& rng,
                                   const std::vector<std::uint8_t>& window,
                                   std::size_t offset) {
    auto codes = random_codes(rng, offset);
    codes.insert(codes.end(), window.begin(), window.end());
    const PackedDna packed{std::span<const std::uint8_t>(codes)};
    return {packed.words().begin(), packed.words().end()};
}

/// Runs one batch of packed lanes through the engine and asserts every
/// lane equals the scalar best_in_bounded over the same window's bytes
/// on (distance, end column, early-exit flag).
void expect_packed_lanes_match_scalar(
    const std::vector<std::uint8_t>& pattern,
    const std::vector<PackedWindow>& lanes,
    const std::vector<std::vector<std::uint8_t>>& windows,
    std::uint32_t delta, const char* label) {
    ASSERT_FALSE(windows.empty());
    ASSERT_LE(windows.size(), kLanes);
    ASSERT_EQ(lanes.size(), windows.size());
    const std::size_t t = windows[0].size();
    for (const auto& window : windows) ASSERT_EQ(window.size(), t) << label;
    MyersSimdEngine engine(pattern);
    MyersMatcher matcher(pattern);
    MyersMatcher::BoundedHit out[kLanes];
    engine.best_in_bounded_multi(lanes.data(), lanes.size(), t, delta, out);
    for (std::size_t l = 0; l < windows.size(); ++l) {
        const auto scalar = matcher.best_in_bounded(windows[l], delta);
        const auto where = [&] {
            return std::string(label) + ": lane " + std::to_string(l) +
                   " n=" + std::to_string(pattern.size()) +
                   " t=" + std::to_string(t) +
                   " delta=" + std::to_string(delta) +
                   " base=" + std::to_string(lanes[l].base);
        };
        ASSERT_EQ(out[l].distance, scalar.distance) << where();
        ASSERT_EQ(out[l].text_end, scalar.text_end) << where();
        ASSERT_EQ(out[l].early_exit, scalar.early_exit) << where();
    }
}

/// Byte-window form: lane l's window is packed at base offset
/// (first_offset + 7·l) mod 32, so one batch mixes word alignments.
void expect_lanes_match_scalar(
    const std::vector<std::uint8_t>& pattern,
    const std::vector<std::vector<std::uint8_t>>& windows,
    std::uint32_t delta, const char* label, std::size_t first_offset = 0) {
    Xoshiro256 noise(first_offset + 1);
    std::vector<std::vector<std::uint64_t>> words;
    std::vector<PackedWindow> lanes;
    for (std::size_t l = 0; l < windows.size(); ++l) {
        const std::size_t offset = (first_offset + 7 * l) % 32;
        words.push_back(pack_at(noise, windows[l], offset));
        lanes.push_back({words.back().data(), offset});
    }
    expect_packed_lanes_match_scalar(pattern, lanes, windows, delta, label);
}

// ----------------------------------------------- differential sweep

TEST(MyersSimdDifferential, RandomizedSweepMatchesScalar) {
    // Seeded, deterministic sweep: read lengths spanning the supported
    // range with the 64-bit word boundaries pinned, every δ the paper
    // uses, partial batches of every lane count, and windows mixing
    // random noise with planted mutated copies (so accept, reject, and
    // boundary-distance outcomes all occur).
    Xoshiro256 rng(20260808);
    const std::size_t lengths[] = {12,  13,  31,  63,  64,  65, 100,
                                   127, 128, 129, 200, 256, 300};
    for (const std::size_t n : lengths) {
        for (std::uint32_t delta = 0; delta <= 8; ++delta) {
            const auto pattern = random_codes(rng, n);
            const std::size_t t = n + 2 * delta;
            const std::size_t count = 1 + rng.bounded(kLanes);
            std::vector<std::vector<std::uint8_t>> windows;
            for (std::size_t l = 0; l < count; ++l) {
                if (rng.chance(0.6)) {
                    auto win = mutated_copy(rng, pattern,
                                            rng.bounded(2 * delta + 2));
                    win.resize(t, 0);
                    for (std::size_t i = n; i < t && i < win.size(); ++i) {
                        win[i] = static_cast<std::uint8_t>(rng.bounded(4));
                    }
                    windows.push_back(std::move(win));
                } else {
                    windows.push_back(random_codes(rng, t));
                }
            }
            expect_lanes_match_scalar(pattern, windows, delta, "sweep");
        }
    }
}

TEST(MyersSimdDifferential, BoundaryClampGeometriesMatchScalar) {
    // The kernel clamps candidate windows at both reference ends:
    // position 0 loses the left δ margin, ref_len - n loses the right
    // margin, and a candidate near the very end can leave a window
    // shorter than the pattern itself (kept while win_len + δ ≥ n).
    // Each clamp changes the band schedule, so each gets its own
    // differential pass — including the degenerate t = 1 column.
    Xoshiro256 rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 12 + rng.bounded(289);
        const std::uint32_t delta =
            static_cast<std::uint32_t>(rng.bounded(9));
        const auto pattern = random_codes(rng, n);
        const std::size_t t_full = n + 2 * delta;
        const std::size_t clamps[] = {
            n + delta,                    // pos-0 clamp: left margin gone
            n + delta - rng.bounded(delta + 1), // right-end clamp
            n >= delta ? n - delta : 1,   // window shorter than pattern
            1,                            // single-column window
            t_full,                       // unclamped control
        };
        for (const std::size_t t : clamps) {
            if (t == 0) continue;
            const std::size_t count = 1 + rng.bounded(kLanes);
            std::vector<std::vector<std::uint8_t>> windows;
            for (std::size_t l = 0; l < count; ++l) {
                auto win = mutated_copy(rng, pattern,
                                        rng.bounded(delta + 2));
                win.resize(t, static_cast<std::uint8_t>(rng.bounded(4)));
                windows.push_back(std::move(win));
            }
            expect_lanes_match_scalar(pattern, windows, delta, "clamp");
        }
    }
}

TEST(MyersSimdDifferential, PackedLanesAtEveryBaseOffset) {
    // The engine reads 2-bit codes straight from packed words, at
    // whatever base offset a window starts inside its group's arena.
    // Every offset 0-31 for the first lane (the others follow at +7),
    // with windows long enough to cross several word boundaries.
    Xoshiro256 rng(3131);
    for (std::size_t offset = 0; offset < 32; ++offset) {
        for (const std::size_t n : {std::size_t{13}, std::size_t{64},
                                    std::size_t{100}, std::size_t{150}}) {
            const auto delta = static_cast<std::uint32_t>(offset % 9);
            const auto pattern = random_codes(rng, n);
            const std::size_t t = n + 2 * delta;
            std::vector<std::vector<std::uint8_t>> windows;
            for (std::size_t l = 0; l < kLanes; ++l) {
                if (rng.chance(0.6)) {
                    auto win = mutated_copy(rng, pattern,
                                            rng.bounded(delta + 2));
                    win.resize(t, static_cast<std::uint8_t>(rng.bounded(4)));
                    windows.push_back(std::move(win));
                } else {
                    windows.push_back(random_codes(rng, t));
                }
            }
            expect_lanes_match_scalar(pattern, windows, delta, "offset",
                                      offset);
        }
    }
}

TEST(MyersSimdDifferential, PackedLanesClampedAtReferenceEnd) {
    // Windows clamped at the reference end, read from the reference's
    // own words: the window's last base is the sequence's last base,
    // often inside a zero-padded partial last word, and the engine
    // must not read past that word.
    Xoshiro256 rng(4242);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 20 + rng.bounded(140);
        const auto delta = static_cast<std::uint32_t>(rng.bounded(9));
        const auto pattern = random_codes(rng, n);
        const std::size_t clamps[] = {n + delta, n + delta / 2,
                                      n >= delta ? n - delta : 1};
        for (const std::size_t t : clamps) {
            std::vector<PackedDna> refs;
            std::vector<std::vector<std::uint8_t>> windows;
            for (std::size_t l = 0; l < kLanes; ++l) {
                // A random prefix, then a mutated copy of the pattern
                // cut to the clamped window at the very end.
                auto codes = random_codes(rng, 40 + rng.bounded(64));
                auto win = mutated_copy(rng, pattern, rng.bounded(delta + 2));
                win.resize(t, static_cast<std::uint8_t>(rng.bounded(4)));
                codes.insert(codes.end(), win.begin(), win.end());
                refs.emplace_back(std::span<const std::uint8_t>(codes));
                windows.push_back(std::move(win));
            }
            std::vector<PackedWindow> lanes;
            for (const PackedDna& ref : refs) {
                lanes.push_back({ref.words().data(), ref.size() - t});
            }
            expect_packed_lanes_match_scalar(pattern, lanes, windows, delta,
                                             "end-clamp");
        }
    }
}

TEST(MyersSimdDifferential, DegenerateSequencesMatchScalar) {
    // All-same-base patterns/windows maximize indel ambiguity in the DP
    // (every column scores alike), and N-containing sequences exercise
    // the parser's deterministic stand-in codes. Both stress the
    // boundary-score bookkeeping rather than the common random case.
    Xoshiro256 rng(99);
    for (std::uint32_t delta = 0; delta <= 8; delta += 2) {
        // Homopolymer pattern vs homopolymer and near-homopolymer
        // windows, same and different bases.
        for (std::uint8_t base = 0; base < 4; ++base) {
            const std::size_t n = 12 + rng.bounded(120);
            const std::vector<std::uint8_t> pattern(n, base);
            const std::size_t t = n + 2 * delta;
            std::vector<std::vector<std::uint8_t>> windows;
            windows.emplace_back(t, base);                       // exact
            windows.emplace_back(t, static_cast<std::uint8_t>(
                                        (base + 1) & 3));        // disjoint
            auto noisy = std::vector<std::uint8_t>(t, base);
            for (std::uint32_t e = 0; e <= delta; ++e) {
                noisy[rng.bounded(t)] =
                    static_cast<std::uint8_t>(rng.bounded(4));
            }
            windows.push_back(std::move(noisy));
            expect_lanes_match_scalar(pattern, windows, delta,
                                      "homopolymer");
        }
        // N-containing FASTA text mapped through Reference::from_ascii
        // (Ns become deterministic stand-in bases at parse, so the
        // engine always sees codes 0..3 — the contract this test
        // documents).
        const std::string ascii =
            "ACGTNNNNACGTACGTNNACGTACGTACGTNNNNNNACGTACGTACGTACGT"
            "NNACGTACGTNNNNACGTACGTACGTACGTNNACGTACGTACGTACGTACGT";
        const auto ref = genomics::Reference::from_ascii(
            "n-test", ascii, /*n_seed=*/delta + 1);
        std::vector<std::uint8_t> codes(ref.size());
        ref.sequence().extract(0, ref.size(), codes.data());
        const std::size_t n = 40;
        const std::vector<std::uint8_t> pattern(codes.begin(),
                                                codes.begin() + n);
        const std::size_t t = n + 2 * delta;
        std::vector<std::vector<std::uint8_t>> windows;
        for (std::size_t start = 0; start + t <= codes.size() &&
                                    windows.size() < kLanes;
             start += 7) {
            windows.emplace_back(codes.begin() + start,
                                 codes.begin() + start + t);
        }
        expect_lanes_match_scalar(pattern, windows, delta, "n-bases");
    }
}

TEST(MyersSimdDifferential, MixedBucketDispatchMatchesScalar) {
    // The kernel's full dispatch shape: jobs of several distinct
    // clamped lengths, bucketed, full batches through the engine,
    // partial-bucket tails through the scalar matcher — then every
    // result compared against a direct scalar scan in original job
    // order. This is the unit-level mirror of map_strand's batched
    // path, including the tail fallback.
    Xoshiro256 rng(777);
    const std::size_t n = 100;
    const std::uint32_t delta = 5;
    const auto pattern = random_codes(rng, n);
    MyersSimdEngine engine(pattern);
    MyersMatcher matcher(pattern);

    // 37 jobs over 3 clamped lengths: guarantees full batches AND
    // non-empty tails in several buckets.
    const std::size_t job_lengths_raw[] = {110, 105, 110, 97, 110, 105};
    std::vector<std::vector<std::uint8_t>> job_windows;
    std::vector<std::uint32_t> lengths;
    for (int i = 0; i < 37; ++i) {
        const std::size_t t = job_lengths_raw[rng.bounded(6)];
        auto win = mutated_copy(rng, pattern, rng.bounded(8));
        win.resize(t, static_cast<std::uint8_t>(rng.bounded(4)));
        lengths.push_back(static_cast<std::uint32_t>(t));
        job_windows.push_back(std::move(win));
    }

    std::vector<std::uint32_t> order;
    std::vector<LengthBucket> buckets;
    align::bucket_by_length(lengths, order, buckets);

    std::vector<std::vector<std::uint64_t>> job_words;
    for (std::size_t i = 0; i < job_windows.size(); ++i) {
        job_words.push_back(pack_at(rng, job_windows[i], i % 32));
    }

    std::vector<MyersMatcher::BoundedHit> results(job_windows.size());
    PackedWindow lanes[kLanes];
    MyersMatcher::BoundedHit hits[kLanes];
    std::size_t batched = 0, tail = 0;
    for (const LengthBucket& bucket : buckets) {
        std::uint32_t i = 0;
        while (bucket.count - i >= kLanes) {
            for (std::size_t k = 0; k < kLanes; ++k) {
                const std::uint32_t job = order[bucket.first + i + k];
                lanes[k] = {job_words[job].data(), job % 32};
            }
            engine.best_in_bounded_multi(lanes, kLanes, bucket.length,
                                         delta, hits);
            for (std::size_t k = 0; k < kLanes; ++k) {
                results[order[bucket.first + i + k]] = hits[k];
            }
            i += kLanes;
            batched += kLanes;
        }
        for (; i < bucket.count; ++i) {
            const auto& win = job_windows[order[bucket.first + i]];
            results[order[bucket.first + i]] =
                matcher.best_in_bounded(win, delta);
            ++tail;
        }
    }
    EXPECT_GT(batched, 0u) << "fixture never filled a batch";
    EXPECT_GT(tail, 0u) << "fixture never produced a tail";

    for (std::size_t i = 0; i < job_windows.size(); ++i) {
        const auto scalar = matcher.best_in_bounded(job_windows[i], delta);
        ASSERT_EQ(results[i].distance, scalar.distance) << "job " << i;
        ASSERT_EQ(results[i].text_end, scalar.text_end) << "job " << i;
        ASSERT_EQ(results[i].early_exit, scalar.early_exit) << "job " << i;
    }
}

TEST(MyersSimdEngineApi, BackendAndAccounting) {
    const std::string backend = align::myers_simd_backend();
    EXPECT_TRUE(backend == "avx512" || backend == "avx2" ||
                backend == "sse4.2" || backend == "portable")
        << backend;
    Xoshiro256 rng(5);
    const auto pattern = random_codes(rng, 100);
    MyersSimdEngine engine(pattern);
    EXPECT_EQ(engine.pattern_length(), 100u);
    EXPECT_EQ(engine.word_count(), 2u);
    const auto win = random_codes(rng, 110);
    const PackedDna packed{std::span<const std::uint8_t>(win)};
    const PackedWindow lane{packed.words().data(), 0};
    MyersMatcher::BoundedHit out[1];
    engine.best_in_bounded_multi(&lane, 1, win.size(), 5, out);
    EXPECT_GT(engine.last_word_ops(), 0u);
    EXPECT_THROW(MyersSimdEngine{std::span<const std::uint8_t>{}},
                 std::invalid_argument);
}

// ------------------------------------------- bucketing permutation

TEST(LaneBucketing, IsAStablePermutation) {
    // Property: bucket_by_length emits every index exactly once,
    // groups are contiguous and length-homogeneous, bucket order is
    // first appearance, and the original order is preserved within
    // each bucket (stability — the kernel's decision replay depends on
    // per-bucket FIFO order matching candidate order).
    Xoshiro256 rng(31337);
    std::vector<std::uint32_t> order;
    std::vector<LengthBucket> buckets;
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = rng.bounded(200);
        std::vector<std::uint32_t> lengths(n);
        for (auto& len : lengths) {
            len = 90 + static_cast<std::uint32_t>(rng.bounded(12));
        }
        align::bucket_by_length(lengths, order, buckets);

        ASSERT_EQ(order.size(), n);
        std::vector<bool> seen(n, false);
        for (const std::uint32_t idx : order) {
            ASSERT_LT(idx, n);
            ASSERT_FALSE(seen[idx]) << "index emitted twice";
            seen[idx] = true;
        }

        std::size_t covered = 0;
        std::vector<std::uint32_t> first_seen;
        for (const LengthBucket& b : buckets) {
            ASSERT_EQ(b.first, covered) << "buckets not contiguous";
            ASSERT_GT(b.count, 0u);
            covered += b.count;
            first_seen.push_back(b.length);
            std::uint32_t prev = 0;
            bool have_prev = false;
            for (std::uint32_t k = 0; k < b.count; ++k) {
                const std::uint32_t idx = order[b.first + k];
                ASSERT_EQ(lengths[idx], b.length)
                    << "bucket not length-homogeneous";
                if (have_prev) {
                    ASSERT_LT(prev, idx) << "within-bucket order broken";
                }
                prev = idx;
                have_prev = true;
            }
        }
        ASSERT_EQ(covered, n) << "buckets do not partition the jobs";
        // Bucket order = first appearance of each distinct length.
        std::vector<std::uint32_t> expected;
        for (const std::uint32_t len : lengths) {
            bool known = false;
            for (const std::uint32_t e : expected) {
                if (e == len) {
                    known = true;
                    break;
                }
            }
            if (!known) expected.push_back(len);
        }
        ASSERT_EQ(first_seen, expected);
    }
}

TEST(LaneBucketing, GatherCandidatesWindowsSurviveBucketingIntact) {
    // The kernel-shaped property: windows coming out of
    // gather_candidates (diagonal collapse + coalesced groups + end
    // clamps) feed the bucketer, and every verification-eligible
    // window must appear exactly once across buckets — none dropped,
    // none duplicated, even when coalescing merges overlapping windows
    // into shared-fetch groups first.
    genomics::GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    gconfig.seed = 17;
    const auto reference = genomics::simulate_genome(gconfig);
    const index::FmIndex fm(reference, 4);
    genomics::ReadSimConfig rconfig;
    rconfig.n_reads = 60;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    const auto sim = genomics::simulate_reads(reference, rconfig);

    const filter::MemoryOptimizedSeeder seeder{12};
    const std::uint32_t delta = 5;
    filter::SeedPlan plan;
    filter::SeedScratch seed_scratch;
    filter::CandidateSet candidates;
    std::vector<std::uint32_t> hits;
    std::vector<std::uint32_t> lengths, order;
    std::vector<LengthBucket> buckets;
    const auto text_len = static_cast<std::uint32_t>(fm.size());

    std::size_t total_windows = 0;
    std::vector<std::uint8_t> rc;
    for (const auto& read : sim.batch.reads) {
      read.reverse_complement(rc);
      const std::vector<std::uint8_t>* orientations[2] = {&read.codes, &rc};
      for (const std::vector<std::uint8_t>* codes : orientations) {
        const auto n = static_cast<std::uint32_t>(codes->size());
        seeder.select(fm, *codes, delta, plan, seed_scratch);
        filter::CandidateConfig cand_config;
        cand_config.coalesce_windows = true;
        filter::gather_candidates(fm, plan, n, delta, cand_config,
                                  candidates, hits);

        // The kernel's eligibility clamps, applied per group member.
        lengths.clear();
        for (const auto& group : candidates.groups) {
            for (std::uint32_t ci = 0; ci < group.count; ++ci) {
                const std::uint32_t start =
                    candidates.positions[group.first + ci];
                const std::uint32_t win_lo =
                    start >= delta ? start - delta : 0;
                if (win_lo >= text_len) continue;
                const std::uint32_t win_len = std::min<std::uint32_t>(
                    n + 2 * delta, text_len - win_lo);
                if (win_len + delta < n) continue;
                lengths.push_back(win_len);
            }
        }
        align::bucket_by_length(lengths, order, buckets);

        ASSERT_EQ(order.size(), lengths.size()) << "read " << read.id;
        std::size_t covered = 0;
        for (const LengthBucket& b : buckets) covered += b.count;
        ASSERT_EQ(covered, lengths.size()) << "read " << read.id;
        std::vector<bool> seen(lengths.size(), false);
        for (const std::uint32_t idx : order) {
            ASSERT_LT(idx, lengths.size());
            ASSERT_FALSE(seen[idx]);
            seen[idx] = true;
        }
        total_windows += lengths.size();
      }
    }
    EXPECT_GT(total_windows, 50u) << "fixture produced too few windows";
}

// ------------------------------------------- full-mapper equivalence

ocl::DeviceProfile test_profile() {
    ocl::DeviceProfile p;
    p.name = "simd-test-cpu";
    p.compute_units = 4;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = 1ULL << 31;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 1e-4;
    return p;
}

TEST(SimdKernelEquivalence, SamByteIdenticalAcrossSimdAndFunnelMatrix) {
    // The acceptance criterion end to end: the full mapper's SAM output
    // must be byte-identical to the SAM of a reference verifier that
    // scans each candidate window alone with the unbanded scalar Myers,
    // with window coalescing on and off. The kernel defers every scan
    // into length-bucketed lane batches (full and partial), so this
    // pins the decision-replay ordering, cap semantics and distances
    // all at once — in REPUTE's flow, under a binding first-n cap, and
    // in CORAL's streaming flow.
    genomics::GenomeSimConfig gconfig;
    gconfig.length = 80'000;
    gconfig.seed = 33;
    const auto reference = genomics::simulate_genome(gconfig);
    const genomics::MultiReference multi(
        {{reference.name(), reference.sequence().to_string()}});
    const index::FmIndex fm(multi.concatenated(), 4);
    genomics::ReadSimConfig rconfig;
    rconfig.n_reads = 120;
    rconfig.read_length = 100;
    rconfig.max_errors = 5;
    rconfig.seed = 11;
    const auto sim = genomics::simulate_reads(multi.concatenated(),
                                              rconfig);
    const std::uint32_t delta = 5;

    const auto render = [&](const core::MapResult& result) {
        std::ostringstream sam;
        pipeline::SamEmitter emitter(sam, multi, {true, delta});
        emitter.write_header();
        for (std::size_t i = 0; i < sim.batch.size(); ++i) {
            sam << emitter.render_read(sim.batch, i, result);
        }
        return sam.str();
    };
    const auto mapper_sam = [&](const core::KernelConfig& kernel,
                                bool coral) {
        ocl::Device device(test_profile());
        core::HeterogeneousMapperConfig config;
        config.kernel = kernel;
        const auto mapper =
            coral ? core::make_coral(multi.concatenated(), fm,
                                     {{&device, 1.0}}, config)
                  : core::make_repute(multi.concatenated(), fm,
                                      {{&device, 1.0}}, config);
        return render(mapper->map(sim.batch, delta));
    };
    const auto reference_sam = [&](const core::KernelConfig& kernel,
                                   const filter::Seeder& seeder) {
        core::MapResult result;
        for (const auto& read : sim.batch.reads) {
            result.per_read.push_back(repute::oracle::reference_verify(
                fm, multi.concatenated(), seeder, read, delta, kernel));
        }
        return render(result);
    };

    const filter::MemoryOptimizedSeeder repute_seeder(12);
    const filter::HeuristicSeeder coral_seeder(12);
    struct Fixture {
        const char* name;
        std::uint32_t cap;
        bool coral;
    };
    const Fixture fixtures[] = {
        {"repute", 100, false}, {"repute cap 3", 3, false},
        {"coral", 100, true}};
    for (const Fixture& f : fixtures) {
        core::KernelConfig kernel;
        kernel.max_locations_per_read = f.cap;
        kernel.collapse_candidates = !f.coral;
        const std::string expected = reference_sam(
            kernel, f.coral ? static_cast<const filter::Seeder&>(coral_seeder)
                            : repute_seeder);
        for (const bool coalesce : {true, false}) {
            kernel.coalesce_windows = coalesce;
            EXPECT_EQ(mapper_sam(kernel, f.coral), expected)
                << f.name << ", coalesce " << (coalesce ? "on" : "off");
        }
    }
}

} // namespace
