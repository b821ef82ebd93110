// Paired-end: simulation geometry, proper-pair joining, mate rescue,
// discordant detection, and the paired SAM fields across sequences.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "align/edit_distance.hpp"
#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/sam_lite.hpp"
#include "index/fm_index.hpp"
#include "ocl/device.hpp"
#include "pipeline/mapping_api.hpp"
#include "pipeline/sam_emitter.hpp"

namespace {

using repute::core::PairClass;
using repute::core::PairedConfig;
using repute::core::PairedMapper;
using repute::core::ReadMapping;
using repute::genomics::GenomeSimConfig;
using repute::genomics::PairSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_pairs;
using repute::genomics::SimulatedPairs;
using repute::genomics::Strand;
using repute::index::FmIndex;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;

DeviceProfile test_profile() {
    DeviceProfile p;
    p.name = "paired-cpu";
    p.compute_units = 8;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = 1ULL << 30;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 0.0;
    return p;
}

class PairedTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig gconfig;
        gconfig.length = 300'000;
        gconfig.seed = 51;
        multi_ = new repute::genomics::MultiReference(
            simulate_genome(gconfig));
        reference_ = &multi_->concatenated();
        fm_ = new FmIndex(*reference_, 4);

        PairSimConfig pconfig;
        pconfig.n_pairs = 150;
        pconfig.read_length = 100;
        pconfig.max_errors = 4;
        pconfig.insert_mean = 350;
        pconfig.insert_stddev = 30;
        sim_ = new SimulatedPairs(simulate_pairs(*reference_, pconfig));
        device_ = new Device(test_profile());
    }
    static void TearDownTestSuite() {
        delete device_;
        delete sim_;
        delete fm_;
        delete multi_;
        device_ = nullptr;
        sim_ = nullptr;
        fm_ = nullptr;
        reference_ = nullptr;
        multi_ = nullptr;
    }

    /// The fixture genome, and the same genome as a one-sequence
    /// MultiReference for SAM output.
    static repute::genomics::MultiReference* multi_;
    static const Reference* reference_;
    static FmIndex* fm_;
    static SimulatedPairs* sim_;
    static Device* device_;
};

repute::genomics::MultiReference* PairedTest::multi_ = nullptr;
const Reference* PairedTest::reference_ = nullptr;
FmIndex* PairedTest::fm_ = nullptr;
SimulatedPairs* PairedTest::sim_ = nullptr;
Device* PairedTest::device_ = nullptr;

// ------------------------------------------------------------ simulation

TEST_F(PairedTest, SimulationGeometry) {
    ASSERT_EQ(sim_->first.size(), 150u);
    ASSERT_EQ(sim_->second.size(), 150u);
    double insert_sum = 0;
    for (const auto& origin : sim_->origins) {
        EXPECT_GE(origin.fragment_length, 100u);
        EXPECT_LE(origin.edits1, 4u);
        EXPECT_LE(origin.edits2, 4u);
        insert_sum += origin.fragment_length;
    }
    // Mean insert near the configured 350.
    EXPECT_NEAR(insert_sum / 150.0, 350.0, 15.0);
}

TEST_F(PairedTest, MatesAlignAtTheirGroundTruth) {
    // Mate 1 forward at fragment_start; mate 2 reverse at
    // fragment_start + fragment_length - read_len.
    for (std::size_t i = 0; i < 20; ++i) {
        const auto& origin = sim_->origins[i];
        const auto window1 = reference_->sequence().extract(
            origin.fragment_start, 104);
        EXPECT_LE(repute::align::semiglobal_distance(
                      sim_->first.reads[i].codes, window1),
                  origin.edits1);
        const std::uint32_t mate2_pos =
            origin.fragment_start + origin.fragment_length - 100;
        const auto window2 =
            reference_->sequence().extract(mate2_pos, 104);
        EXPECT_LE(repute::align::semiglobal_distance(
                      sim_->second.reads[i].reverse_complement(),
                      window2),
                  origin.edits2);
    }
}

// --------------------------------------------------------------- pairing

TEST_F(PairedTest, MostPairsAreProperWithCorrectInserts) {
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{device_, 1.0}});
    PairedConfig config;
    config.min_insert = 200;
    config.max_insert = 500;
    PairedMapper paired(*mapper, *reference_, config);
    const auto result =
        paired.map_pairs(sim_->first, sim_->second, 4);

    ASSERT_EQ(result.pairs.size(), 150u);
    const double proper_fraction =
        static_cast<double>(result.count(PairClass::Proper)) / 150.0;
    EXPECT_GE(proper_fraction, 0.95);
    EXPECT_GT(result.mapping_seconds, 0.0);

    for (std::size_t i = 0; i < result.pairs.size(); ++i) {
        const auto& pair = result.pairs[i];
        if (pair.classification != PairClass::Proper) continue;
        EXPECT_GE(pair.insert_size, 200u);
        EXPECT_LE(pair.insert_size, 500u);
        // Insert close to the simulated fragment length.
        const auto truth = sim_->origins[i].fragment_length;
        EXPECT_NEAR(static_cast<double>(pair.insert_size),
                    static_cast<double>(truth), 10.0)
            << "pair " << i;
    }
}

TEST_F(PairedTest, RescueRecoversBrokenMate) {
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{device_, 1.0}});
    PairedConfig config;
    config.min_insert = 200;
    config.max_insert = 500;
    PairedMapper paired(*mapper, *reference_, config);

    // Pick a pair whose mate 2 is error-free, then plant exactly 5
    // substitutions: single-end mapping at delta=4 fails (distance 5),
    // but rescue at delta + bonus = 6 succeeds.
    std::size_t clean = sim_->origins.size();
    for (std::size_t i = 0; i < sim_->origins.size(); ++i) {
        if (sim_->origins[i].edits2 == 0) {
            clean = i;
            break;
        }
    }
    ASSERT_LT(clean, sim_->origins.size());
    repute::genomics::ReadBatch first, second;
    first.read_length = second.read_length = 100;
    first.reads.push_back(sim_->first.reads[clean]);
    second.reads.push_back(sim_->second.reads[clean]);
    auto& victim = second.reads[0];
    std::uint32_t planted = 0;
    for (std::size_t at = 5; planted < 5 && at < victim.codes.size();
         at += 19) {
        victim.codes[at] =
            static_cast<std::uint8_t>((victim.codes[at] + 1) & 3);
        ++planted;
    }
    ASSERT_EQ(planted, 5u);

    const auto result = paired.map_pairs(first, second, 4);
    const auto& pair = result.pairs[0];
    // Either the victim still mapped (its simulated errors were low) or
    // it was rescued; it must not be lost entirely.
    EXPECT_NE(pair.classification, PairClass::OneMateUnmapped);
    EXPECT_NE(pair.classification, PairClass::BothUnmapped);

    // With rescue disabled, the same input degrades.
    PairedConfig no_rescue = config;
    no_rescue.enable_rescue = false;
    PairedMapper strict(*mapper, *reference_, no_rescue);
    const auto strict_result = strict.map_pairs(first, second, 4);
    EXPECT_GE(strict_result.count(PairClass::OneMateUnmapped),
              result.count(PairClass::OneMateUnmapped));
}

TEST_F(PairedTest, DiscordantPairsDetected) {
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{device_, 1.0}});
    PairedConfig config;
    config.min_insert = 200;
    config.max_insert = 500;
    config.enable_rescue = false;
    PairedMapper paired(*mapper, *reference_, config);

    // Build a translocated pair: mate1 of pair 0 with mate2 of pair 1
    // (different loci -> no proper insert).
    repute::genomics::ReadBatch first, second;
    first.read_length = second.read_length = 100;
    first.reads.push_back(sim_->first.reads[0]);
    second.reads.push_back(sim_->second.reads[1]);
    const auto result = paired.map_pairs(first, second, 4);
    ASSERT_EQ(result.pairs.size(), 1u);
    EXPECT_EQ(result.pairs[0].classification, PairClass::Discordant);
}

TEST_F(PairedTest, PairedSamExportFlagsAndTlen) {
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{device_, 1.0}});
    PairedConfig config;
    config.min_insert = 200;
    config.max_insert = 500;
    PairedMapper paired(*mapper, *reference_, config);

    repute::genomics::ReadBatch first, second;
    first.read_length = second.read_length = 100;
    for (std::size_t i = 0; i < 10; ++i) {
        first.reads.push_back(sim_->first.reads[i]);
        second.reads.push_back(sim_->second.reads[i]);
    }
    const auto result = paired.map_pairs(first, second, 4);
    const auto& multi = *multi_;
    std::stringstream io;
    repute::pipeline::SamEmitter emitter(io, multi, {true, 4});
    emitter.write_header();
    for (const auto& pair : emitter.render_paired(first, second, result)) {
        io << pair;
    }
    const auto sam = repute::genomics::read_sam(io);
    ASSERT_EQ(sam.size(), 20u);
    EXPECT_EQ(emitter.stats().reads, 20u);

    using repute::genomics::SamRecord;
    std::size_t proper = 0;
    for (std::size_t i = 0; i < sam.size(); i += 2) {
        const auto& r1 = sam[i];
        const auto& r2 = sam[i + 1];
        EXPECT_TRUE(r1.flag & SamRecord::kFlagPaired);
        EXPECT_TRUE(r1.flag & SamRecord::kFlagFirstInPair);
        EXPECT_TRUE(r2.flag & SamRecord::kFlagSecondInPair);
        EXPECT_EQ(r1.qname, first.reads[i / 2].name);
        EXPECT_EQ(r2.qname, second.reads[i / 2].name);
        if ((r1.flag & SamRecord::kFlagProperPair) != 0) {
            ++proper;
            // Proper pairs: mates point at each other; TLEN mirrors.
            EXPECT_EQ(r1.rname, reference_->name());
            EXPECT_EQ(r1.rnext, "=");
            EXPECT_EQ(r2.rnext, "=");
            EXPECT_EQ(r1.pnext, r2.pos);
            EXPECT_EQ(r2.pnext, r1.pos);
            EXPECT_EQ(r1.tlen, -r2.tlen);
            EXPECT_NE(r1.tlen, 0);
            // Exactly one mate on the reverse strand.
            EXPECT_NE((r1.flag & SamRecord::kFlagReverse) != 0,
                      (r2.flag & SamRecord::kFlagReverse) != 0);
            // 0x20 mirrors the mate's own 0x10.
            EXPECT_EQ((r1.flag & SamRecord::kFlagMateReverse) != 0,
                      (r2.flag & SamRecord::kFlagReverse) != 0);
        }
    }
    EXPECT_GT(proper, 5u);
}

// Mates that resolve to different sequences of a multi-sequence
// reference. Each pair is placed by PairedMapper on the concatenated
// text, where the spanning pair even looks proper; the emitter must
// judge mate fields on per-sequence placements.
TEST(PairedSam, MatesOnDifferentSequences) {
    GenomeSimConfig config;
    config.length = 30'000;
    config.seed = 61;
    const std::string a = simulate_genome(config).sequence().to_string();
    config.length = 20'000;
    config.seed = 62;
    const std::string b = simulate_genome(config).sequence().to_string();
    const std::string joined = a + b;
    const auto rc = [](std::string s) {
        for (char& c : s) {
            c = c == 'A' ? 'T' : c == 'C' ? 'G' : c == 'G' ? 'C' : 'A';
        }
        return std::string(s.rbegin(), s.rend());
    };
    // 0-based slices, 100 bp mates, mate 2 reverse-complemented.
    const std::pair<std::string, std::string> pairs[] = {
        {a.substr(1000, 100), rc(b.substr(5000, 100))},   // chimeric
        {a.substr(29850, 100), rc(b.substr(150, 100))},   // spans the join
        {a.substr(29600, 100), rc(joined.substr(29950, 100))}, // straddler
        {b.substr(1000, 100), rc(b.substr(1300, 100))},   // proper control
    };
    const char* names[] = {"chim", "span", "strad", "ok"};
    std::string fq1, fq2;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::string qual(100, 'I');
        fq1 += "@" + std::string(names[i]) + "/1\n" + pairs[i].first +
               "\n+\n" + qual + "\n";
        fq2 += "@" + std::string(names[i]) + "/2\n" + pairs[i].second +
               "\n+\n" + qual + "\n";
    }

    const auto session = repute::pipeline::MappingSession::from_multi(
        repute::genomics::MultiReference(
            std::vector<repute::genomics::FastaRecord>{{"chrA", a},
                                                       {"chrB", b}}));
    std::istringstream in1(fq1), in2(fq2);
    repute::pipeline::MapRequest request;
    request.reads = &in1;
    request.reads2 = &in2;
    request.delta = 3;
    std::stringstream sam;
    const auto response = session->map(request, sam);
    EXPECT_EQ(response.emitted.dropped_boundary, 1u);

    using repute::genomics::SamRecord;
    std::map<std::string, SamRecord> by_name;
    for (auto& rec : repute::genomics::read_sam(sam)) {
        by_name[rec.qname] = rec;
    }
    ASSERT_EQ(by_name.size(), 8u);
    struct Expected {
        const char* qname;
        std::uint16_t flag;
        const char* rname;
        std::uint32_t pos;
        const char* rnext;
        std::uint32_t pnext;
        std::int32_t tlen;
    };
    const Expected expected[] = {
        {"chim/1", 97, "chrA", 1001, "chrB", 5001, 0},
        {"chim/2", 145, "chrB", 5001, "chrA", 1001, 0},
        {"span/1", 97, "chrA", 29851, "chrB", 151, 0},
        {"span/2", 145, "chrB", 151, "chrA", 29851, 0},
        {"strad/1", 73, "chrA", 29601, "*", 0, 0},
        {"strad/2", 133, "*", 0, "chrA", 29601, 0},
        {"ok/1", 99, "chrB", 1001, "=", 1301, 400},
        {"ok/2", 147, "chrB", 1301, "=", 1001, -400},
    };
    for (const auto& e : expected) {
        SCOPED_TRACE(e.qname);
        ASSERT_EQ(by_name.count(e.qname), 1u);
        const SamRecord& rec = by_name[e.qname];
        EXPECT_EQ(rec.flag, e.flag);
        EXPECT_EQ(rec.rname, e.rname);
        EXPECT_EQ(rec.pos, e.pos);
        EXPECT_EQ(rec.rnext, e.rnext);
        EXPECT_EQ(rec.pnext, e.pnext);
        EXPECT_EQ(rec.tlen, e.tlen);
    }
}

TEST_F(PairedTest, RejectsMismatchedBatches) {
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{device_, 1.0}});
    PairedMapper paired(*mapper, *reference_);
    repute::genomics::ReadBatch first, second;
    first.read_length = second.read_length = 100;
    first.reads.resize(2);
    second.reads.resize(3);
    EXPECT_THROW((void)paired.map_pairs(first, second, 3),
                 std::invalid_argument);
    EXPECT_THROW(PairedMapper(*mapper, *reference_,
                              PairedConfig{500, 200, true, 2}),
                 std::invalid_argument);
}

} // namespace
