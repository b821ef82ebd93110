// Cross-module edge cases: degenerate parameters, boundary geometries,
// delta = 0 exact mapping, multi-chromosome end-to-end, and index knob
// validation.

#include <gtest/gtest.h>

#include <sstream>

#include "align/myers.hpp"
#include "util/prng.hpp"
#include "core/accuracy.hpp"
#include "core/kernels.hpp"
#include "core/repute_mapper.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/device.hpp"
#include "reference_verifier.hpp"

namespace {

using repute::core::contains_mapping;
using repute::core::ReadMapping;
using repute::genomics::FastaRecord;
using repute::genomics::GenomeSimConfig;
using repute::genomics::MultiReference;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::Strand;
using repute::index::FmIndex;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;

DeviceProfile test_profile() {
    DeviceProfile p;
    p.name = "edge-cpu";
    p.compute_units = 4;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = 1ULL << 30;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 0.0;
    return p;
}

// ------------------------------------------------------------- FM knobs

TEST(EdgeFmIndex, TinyTexts) {
    for (const char* text : {"A", "AC", "ACG", "ACGTACGT"}) {
        const auto ref = Reference::from_ascii("t", text);
        const FmIndex fm(ref, 1);
        EXPECT_EQ(fm.size(), std::string(text).size());
        // Every single-character search counts correctly.
        for (std::uint8_t c = 0; c < 4; ++c) {
            std::size_t expected = 0;
            for (const char ch : std::string(text)) {
                expected +=
                    repute::util::base_to_code(ch) == c ? 1 : 0;
            }
            const std::uint8_t pattern[] = {c};
            EXPECT_EQ(fm.search(pattern).count(), expected)
                << text << " code " << int(c);
        }
    }
}

TEST(EdgeFmIndex, RejectsBadCheckpointSpacing) {
    const auto ref = Reference::from_ascii("t", "ACGTACGTACGT");
    EXPECT_THROW(FmIndex(ref, 4, 16), std::invalid_argument);  // < 32
    EXPECT_THROW(FmIndex(ref, 4, 100), std::invalid_argument); // not 2^k
    EXPECT_NO_THROW(FmIndex(ref, 4, 32));
    EXPECT_NO_THROW(FmIndex(ref, 4, 1024));
}

TEST(EdgeFmIndex, WideCheckpointsAnswerIdentically) {
    GenomeSimConfig config;
    config.length = 20'000;
    const auto ref = simulate_genome(config);
    const FmIndex narrow(ref, 4, 32);
    const FmIndex wide(ref, 4, 1024);
    repute::util::Xoshiro256 rng(3);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t len = 4 + rng.bounded(20);
        const std::size_t pos = rng.bounded(ref.size() - len);
        const auto pattern = ref.sequence().extract(pos, len);
        EXPECT_EQ(narrow.search(pattern), wide.search(pattern));
    }
}

// -------------------------------------------------------- delta = 0

TEST(EdgeMapping, DeltaZeroIsExactMatching) {
    GenomeSimConfig gconfig;
    gconfig.length = 100'000;
    const auto ref = simulate_genome(gconfig);
    const FmIndex fm(ref, 4);
    Device dev(test_profile());

    ReadSimConfig rconfig;
    rconfig.n_reads = 150;
    rconfig.read_length = 100;
    rconfig.max_errors = 2; // some reads exact, some not
    const auto sim = simulate_reads(ref, rconfig);

    repute::core::HeterogeneousMapperConfig config;
    config.kernel.s_min = 20;
    auto mapper = repute::core::make_repute(ref, fm, {{&dev, 1.0}}, config);
    const auto result = mapper->map(sim.batch, 0);

    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        for (const auto& m : result.per_read[i]) {
            EXPECT_EQ(m.edit_distance, 0u);
        }
        ReadMapping truth;
        truth.position = sim.origins[i].position;
        truth.strand = sim.origins[i].strand;
        if (sim.origins[i].edits == 0) {
            EXPECT_TRUE(contains_mapping(result.per_read[i], truth, 0))
                << "exact read " << i << " must map at delta 0";
        }
    }
}

// --------------------------------------------- multi-chromosome mapping

TEST(EdgeMultiRef, EndToEndAcrossChromosomes) {
    // Three small chromosomes; reads sampled from each must resolve to
    // the right one.
    GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    std::vector<FastaRecord> records;
    for (int c = 0; c < 3; ++c) {
        gconfig.seed = 100 + c;
        const auto chromosome = simulate_genome(gconfig);
        records.push_back({"chr" + std::to_string(c),
                           chromosome.sequence().to_string()});
    }
    const MultiReference multi(records);
    const FmIndex fm(multi.concatenated(), 4);
    Device dev(test_profile());
    auto mapper = repute::core::make_repute(multi.concatenated(), fm,
                                            {{&dev, 1.0}});

    // One exact read from the middle of each chromosome.
    repute::genomics::ReadBatch batch;
    batch.read_length = 100;
    for (int c = 0; c < 3; ++c) {
        repute::genomics::Read read;
        read.id = static_cast<std::uint32_t>(c);
        const std::uint32_t global =
            static_cast<std::uint32_t>(c) * 60'000 + 30'000;
        read.codes = multi.concatenated().sequence().extract(global, 100);
        batch.reads.push_back(std::move(read));
    }
    const auto result = mapper->map(batch, 3);

    for (int c = 0; c < 3; ++c) {
        ASSERT_FALSE(result.per_read[static_cast<std::size_t>(c)].empty());
        bool found = false;
        for (const auto& m :
             result.per_read[static_cast<std::size_t>(c)]) {
            if (!multi.within_one_sequence(m.position, 100)) continue;
            const auto loc = multi.resolve(m.position);
            if (loc.sequence_index == static_cast<std::size_t>(c) &&
                loc.offset >= 29'990 && loc.offset <= 30'010) {
                found = true;
            }
        }
        EXPECT_TRUE(found) << "chr" << c;
    }
}

// ----------------------------------------------------- split edge cases

TEST(EdgeSplit, ZeroShareDeviceGetsNoReads) {
    GenomeSimConfig gconfig;
    gconfig.length = 50'000;
    const auto ref = simulate_genome(gconfig);
    const FmIndex fm(ref, 4);
    Device a(test_profile()), b(test_profile());

    ReadSimConfig rconfig;
    rconfig.n_reads = 50;
    rconfig.read_length = 100;
    const auto sim = simulate_reads(ref, rconfig);

    // Shares {1.0, 0.0}: b is dropped at construction.
    auto mapper = repute::core::make_repute(ref, fm,
                                            {{&a, 1.0}, {&b, 0.0}});
    const auto result = mapper->map(sim.batch, 3);
    ASSERT_EQ(result.device_runs.size(), 1u);
    EXPECT_EQ(result.device_runs[0].device_name, "edge-cpu");
}

TEST(EdgeSplit, MoreDevicesThanReads) {
    GenomeSimConfig gconfig;
    gconfig.length = 50'000;
    const auto ref = simulate_genome(gconfig);
    const FmIndex fm(ref, 4);
    Device a(test_profile()), b(test_profile()), c(test_profile());

    repute::genomics::ReadBatch batch;
    batch.read_length = 100;
    repute::genomics::Read read;
    read.codes = ref.sequence().extract(123, 100);
    batch.reads.push_back(read);

    auto mapper = repute::core::make_repute(
        ref, fm, {{&a, 1.0}, {&b, 1.0}, {&c, 1.0}});
    const auto result = mapper->map(batch, 3);
    EXPECT_FALSE(result.per_read[0].empty());
    std::size_t total = 0;
    for (const auto& run : result.device_runs) total += run.stats.items;
    EXPECT_EQ(total, 1u);
}

// ------------------------------------------------------- Myers extremes

TEST(EdgeAlign, PatternLongerThanText) {
    const std::vector<std::uint8_t> pattern(100, 2);
    const std::vector<std::uint8_t> text(10, 2);
    const repute::align::MyersMatcher matcher(pattern);
    const auto hit = matcher.best_in(text);
    // 90 pattern bases cannot be consumed: distance 90.
    EXPECT_EQ(hit.distance, 90u);
}

TEST(EdgeAlign, BandedPatternLongerThanText) {
    // The clamped boundary window case: text shorter than the pattern
    // must not trip the banded word-range logic.
    const std::vector<std::uint8_t> pattern(100, 2);
    const std::vector<std::uint8_t> text(10, 2);
    const repute::align::MyersMatcher matcher(pattern);
    for (const std::uint32_t delta : {0u, 5u, 89u, 90u, 95u}) {
        const auto hit = matcher.best_in_bounded(text, delta);
        if (delta >= 90u) {
            EXPECT_EQ(hit.distance, 90u) << "delta " << delta;
        } else {
            EXPECT_GT(hit.distance, delta) << "delta " << delta;
        }
    }
}

// ------------------------------------- reference-boundary candidates

TEST(EdgeMapping, ReadsAtReferenceBoundariesMapWithFunnelOnAndOff) {
    // Reads planted at position 0 and at ref_len - read_len force the
    // kernel's window clamping on both edges: the left window loses its
    // delta pad (win_lo clamps to 0) and the right one is truncated at
    // text_len. Both must map identically with window coalescing on and
    // off, and equal the per-window scalar scan outside the kernel.
    GenomeSimConfig gconfig;
    gconfig.length = 30'000;
    gconfig.seed = 77;
    const auto ref = simulate_genome(gconfig);
    const FmIndex fm(ref, 4);
    const std::uint32_t n = 100;
    const auto ref_len = static_cast<std::uint32_t>(ref.size());

    repute::genomics::ReadBatch batch;
    batch.read_length = n;
    std::uint32_t id = 0;
    for (const std::uint32_t pos : {0u, ref_len - n}) {
        // One exact read and one with a few substitutions.
        for (const int edits : {0, 3}) {
            repute::genomics::Read read;
            read.id = id++;
            read.codes = ref.sequence().extract(pos, n);
            for (int e = 0; e < edits; ++e) {
                auto& c = read.codes[static_cast<std::size_t>(7 + 31 * e)];
                c = static_cast<std::uint8_t>((c + 1) & 3);
            }
            batch.reads.push_back(std::move(read));
        }
    }

    repute::core::KernelConfig funnel_on;
    repute::core::KernelConfig funnel_off;
    funnel_off.coalesce_windows = false;
    const repute::filter::MemoryOptimizedSeeder seeder(12);

    repute::core::KernelScratch scratch_on, scratch_off;
    std::vector<ReadMapping> out_on, out_off;
    for (std::size_t i = 0; i < batch.reads.size(); ++i) {
        const auto& read = batch.reads[i];
        repute::core::map_read_workitem(fm, ref, seeder, read, 5,
                                        funnel_on, out_on, scratch_on);
        repute::core::map_read_workitem(fm, ref, seeder, read, 5,
                                        funnel_off, out_off, scratch_off);
        ASSERT_EQ(out_on, out_off) << "read " << read.id;
        ASSERT_EQ(out_on, repute::oracle::reference_verify(
                              fm, ref, seeder, read, 5, funnel_on))
            << "read " << read.id;

        const std::uint32_t expected = i < 2 ? 0u : ref_len - n;
        ReadMapping truth;
        truth.position = expected;
        truth.strand = Strand::Forward;
        EXPECT_TRUE(contains_mapping(out_on, truth, 0))
            << "boundary read " << read.id << " at " << expected;
    }
}

} // namespace
