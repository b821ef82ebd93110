// CIGAR annotation (the paper's future-work extension) and per-stage
// kernel accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/cigar.hpp"
#include "core/kernels.hpp"
#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "filter/memopt_seeder.hpp"
#include "full_table_align.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "genomics/sam_lite.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "pipeline/sam_emitter.hpp"

namespace {

using repute::core::annotate_mapping;
using repute::core::AnnotatedMapping;
using repute::core::KernelConfig;
using repute::core::ReadMapping;
using repute::core::StageTotals;
using repute::genomics::GenomeSimConfig;
using repute::genomics::ReadSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::genomics::simulate_reads;
using repute::genomics::SimulatedReads;
using repute::genomics::Strand;
using repute::index::FmIndex;
using repute::ocl::Device;
using repute::ocl::DeviceProfile;

DeviceProfile test_profile() {
    DeviceProfile p;
    p.name = "cigar-cpu";
    p.compute_units = 4;
    p.ops_per_unit_per_second = 1e9;
    p.global_memory_bytes = 1ULL << 30;
    p.private_memory_per_unit = 1 << 20;
    p.dispatch_overhead_seconds = 0.0;
    return p;
}

/// annotate_mapping's window and strand handling over the full-table
/// oracle aligner: the reference output the bit-vector aligner must match.
std::optional<AnnotatedMapping>
oracle_annotate(const Reference& reference, const repute::genomics::Read& read,
                const ReadMapping& mapping, std::uint32_t delta) {
    const auto n = static_cast<std::uint32_t>(read.length());
    const auto text_len = static_cast<std::uint32_t>(reference.size());
    const std::uint32_t win_lo =
        mapping.position >= delta ? mapping.position - delta : 0;
    if (win_lo >= text_len) return std::nullopt;
    const std::uint32_t win_len =
        std::min<std::uint32_t>(n + 2 * delta, text_len - win_lo);
    const auto pattern = mapping.strand == Strand::Reverse
                             ? read.reverse_complement()
                             : read.codes;
    const auto window = reference.sequence().extract(win_lo, win_len);
    const auto alignment = repute::oracle::full_table_semiglobal_align(
        pattern, window, delta);
    if (!alignment.has_value()) return std::nullopt;
    AnnotatedMapping out;
    out.mapping = mapping;
    out.mapping.edit_distance =
        static_cast<std::uint16_t>(alignment->distance);
    out.precise_position = win_lo + alignment->text_start;
    out.cigar = alignment->cigar;
    return out;
}

class CigarTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        GenomeSimConfig gconfig;
        gconfig.length = 100'000;
        gconfig.seed = 9;
        multi_ = new repute::genomics::MultiReference(
            simulate_genome(gconfig));
        reference_ = &multi_->concatenated();
        fm_ = new FmIndex(*reference_, 4);

        ReadSimConfig rconfig;
        rconfig.n_reads = 120;
        rconfig.read_length = 100;
        rconfig.max_errors = 4;
        rconfig.seed = 11;
        sim_ = new SimulatedReads(simulate_reads(*reference_, rconfig));
    }
    static void TearDownTestSuite() {
        delete sim_;
        delete fm_;
        delete multi_;
        sim_ = nullptr;
        fm_ = nullptr;
        reference_ = nullptr;
        multi_ = nullptr;
    }

    /// Read-consumed length from a CIGAR: M and I ops.
    static std::size_t cigar_read_length(const std::string& cigar) {
        std::size_t consumed = 0, num = 0;
        for (const char c : cigar) {
            if (c >= '0' && c <= '9') {
                num = num * 10 + static_cast<std::size_t>(c - '0');
            } else {
                if (c == 'M' || c == 'I') consumed += num;
                num = 0;
            }
        }
        return consumed;
    }

    /// The fixture genome, and the same genome as a one-sequence
    /// MultiReference for SAM output.
    static repute::genomics::MultiReference* multi_;
    static const Reference* reference_;
    static FmIndex* fm_;
    static SimulatedReads* sim_;
};

repute::genomics::MultiReference* CigarTest::multi_ = nullptr;
const Reference* CigarTest::reference_ = nullptr;
FmIndex* CigarTest::fm_ = nullptr;
SimulatedReads* CigarTest::sim_ = nullptr;

TEST_F(CigarTest, ExactReadGetsAllMatchCigar) {
    repute::genomics::Read read;
    read.codes = reference_->sequence().extract(2000, 100);
    ReadMapping mapping;
    mapping.position = 2000;
    mapping.edit_distance = 0;
    mapping.strand = Strand::Forward;
    const auto annotated =
        annotate_mapping(*reference_, read, mapping, 3);
    ASSERT_TRUE(annotated.has_value());
    EXPECT_EQ(annotated->cigar, "100M");
    EXPECT_EQ(annotated->precise_position, 2000u);
    EXPECT_EQ(annotated->mapping.edit_distance, 0u);
}

TEST_F(CigarTest, ReverseStrandAnnotation) {
    repute::genomics::Read read;
    const auto fwd = reference_->sequence().extract(5000, 100);
    read.codes.assign(fwd.rbegin(), fwd.rend());
    for (auto& b : read.codes) b = repute::util::complement_code(b);

    ReadMapping mapping;
    mapping.position = 5000;
    mapping.strand = Strand::Reverse;
    const auto annotated =
        annotate_mapping(*reference_, read, mapping, 3);
    ASSERT_TRUE(annotated.has_value());
    EXPECT_EQ(annotated->cigar, "100M");
    EXPECT_EQ(annotated->precise_position, 5000u);
}

TEST_F(CigarTest, UnalignableMappingRejected) {
    repute::genomics::Read read;
    read.codes.assign(100, 0); // poly-A
    ReadMapping mapping;
    mapping.position = 2000;
    mapping.strand = Strand::Forward;
    // Unless position 2000 happens to be ~poly-A (it is random), the
    // re-alignment cannot reach distance <= 1.
    const auto annotated =
        annotate_mapping(*reference_, read, mapping, 1);
    EXPECT_FALSE(annotated.has_value());
}

TEST_F(CigarTest, EndToEndSamWithCigar) {
    Device dev(test_profile());
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);

    const auto& multi = *multi_;
    std::stringstream io;
    repute::pipeline::SamEmitter emitter(io, multi, {true, 4});
    for (std::size_t i = 0; i < sim_->batch.size(); ++i) {
        io << emitter.render_read(sim_->batch, i, result);
    }
    EXPECT_EQ(emitter.stats().dropped_cigar, 0u)
        << "kernel mappings must all re-align";
    const auto sam = repute::genomics::read_sam(io);

    std::size_t mapped_records = 0;
    for (const auto& rec : sam) {
        if (rec.unmapped()) continue;
        ++mapped_records;
        // Every CIGAR consumes exactly the read length.
        EXPECT_EQ(cigar_read_length(rec.cigar), 100u) << rec.cigar;
        EXPECT_LE(rec.edit_distance, 4u);
        EXPECT_GE(rec.pos, 1u);
    }
    EXPECT_GT(mapped_records, sim_->batch.size() / 2);
}

TEST_F(CigarTest, ReverseStrandSeqIsReverseComplemented) {
    // SAM §1.4: on a 0x10 record SEQ reads along the forward strand, as
    // POS and the CIGAR do, so walking it against the reference with
    // the CIGAR finds no mismatch.
    repute::genomics::Read forward;
    forward.codes = reference_->sequence().extract(5000, 100);
    repute::genomics::ReadBatch batch;
    batch.read_length = 100;
    batch.reads.resize(1);
    batch.reads[0].name = "rc";
    batch.reads[0].codes = forward.reverse_complement();
    ReadMapping mapping;
    mapping.position = 5000;
    mapping.strand = Strand::Reverse;
    repute::core::MapResult result;
    result.per_read.push_back({mapping});

    const auto& multi = *multi_;
    std::stringstream io;
    repute::pipeline::SamEmitter emitter(io, multi, {true, 3});
    io << emitter.render_read(batch, 0, result);
    const auto sam = repute::genomics::read_sam(io);
    ASSERT_EQ(sam.size(), 1u);
    const auto& rec = sam[0];
    EXPECT_EQ(rec.flag & repute::genomics::SamRecord::kFlagReverse,
              repute::genomics::SamRecord::kFlagReverse);
    EXPECT_EQ(rec.cigar, "100M");
    EXPECT_EQ(rec.pos, 5001u);
    EXPECT_EQ(rec.seq, forward.to_string());
}

TEST_F(CigarTest, ReverseMateSeqIsReverseComplemented) {
    // The paired emitter follows the same rule per mate: the forward
    // mate keeps its bases, the reverse mate is reverse-complemented.
    repute::genomics::Read mate1, mate2, ref_window;
    mate1.name = "p/1";
    mate1.codes = reference_->sequence().extract(3000, 100);
    ref_window.codes = reference_->sequence().extract(3200, 100);
    mate2.name = "p/2";
    mate2.codes = ref_window.reverse_complement();
    repute::core::PairMapping pair;
    pair.classification = repute::core::PairClass::Proper;
    pair.mate1.position = 3000;
    pair.mate1.strand = Strand::Forward;
    pair.mate2.position = 3200;
    pair.mate2.strand = Strand::Reverse;
    pair.insert_size = 300;
    repute::genomics::ReadBatch first, second;
    first.read_length = second.read_length = 100;
    first.reads.push_back(mate1);
    second.reads.push_back(mate2);
    repute::core::PairedResult result;
    result.pairs.push_back(pair);

    const auto& multi = *multi_;
    std::stringstream io;
    repute::pipeline::SamEmitter emitter(io, multi, {false, 3});
    for (const auto& bytes : emitter.render_paired(first, second, result)) {
        io << bytes;
    }
    const auto sam = repute::genomics::read_sam(io);
    ASSERT_EQ(sam.size(), 2u);
    EXPECT_EQ(sam[0].seq, mate1.to_string());
    EXPECT_EQ(sam[1].flag & repute::genomics::SamRecord::kFlagReverse,
              repute::genomics::SamRecord::kFlagReverse);
    EXPECT_EQ(sam[1].pos, 3201u);
    EXPECT_EQ(sam[1].seq, ref_window.to_string());
}

TEST_F(CigarTest, PrecisePositionMatchesOriginForCleanReads) {
    Device dev(test_profile());
    auto mapper = repute::core::make_repute(*reference_, *fm_,
                                            {{&dev, 1.0}});
    const auto result = mapper->map(sim_->batch, 4);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < sim_->batch.size(); ++i) {
        if (sim_->origins[i].edits != 0) continue; // exact reads only
        for (const auto& m : result.per_read[i]) {
            if (m.edit_distance != 0) continue;
            const auto a = annotate_mapping(
                *reference_, sim_->batch.reads[i], m, 4);
            ASSERT_TRUE(a.has_value());
            if (a->precise_position == sim_->origins[i].position) {
                ++checked;
                break;
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(CigarOracle, KernelMappingsOnRepeatGenomeMatchFullTable) {
    // Half the genome is near-identical repeat copies, so reads carry
    // many locations and many windows hold near-ties for the traceback
    // to break.
    GenomeSimConfig gconfig;
    gconfig.length = 60'000;
    gconfig.seed = 17;
    gconfig.interspersed_fraction = 0.5;
    gconfig.n_repeat_families = 3;
    gconfig.repeat_divergence = 0.01;
    const Reference reference = simulate_genome(gconfig);
    const FmIndex fm(reference, 4);
    Device dev(test_profile());
    auto mapper = repute::core::make_repute(reference, fm, {{&dev, 1.0}});

    for (const auto& [length, delta] :
         {std::pair<std::size_t, std::uint32_t>{100, 5}, {150, 7}}) {
        ReadSimConfig rconfig;
        rconfig.n_reads = 150;
        rconfig.read_length = length;
        rconfig.max_errors = delta;
        rconfig.seed = 23 + length;
        const auto sim = simulate_reads(reference, rconfig);
        const auto result = mapper->map(sim.batch, delta);

        std::size_t per_strand[2] = {0, 0};
        std::size_t annotated_count = 0;
        for (std::size_t r = 0; r < sim.batch.size(); ++r) {
            const auto& read = sim.batch.reads[r];
            for (const auto& m : result.per_read[r]) {
                const auto banded =
                    annotate_mapping(reference, read, m, delta);
                const auto full = oracle_annotate(reference, read, m, delta);
                ASSERT_EQ(banded.has_value(), full.has_value())
                    << "read " << r << " pos " << m.position;
                ++per_strand[m.strand == Strand::Reverse ? 1 : 0];
                if (!full.has_value()) continue;
                ++annotated_count;
                EXPECT_EQ(banded->cigar, full->cigar) << "read " << r;
                EXPECT_EQ(banded->precise_position, full->precise_position)
                    << "read " << r;
                EXPECT_EQ(banded->mapping.edit_distance,
                          full->mapping.edit_distance)
                    << "read " << r;
            }
        }
        EXPECT_GT(per_strand[0], sim.batch.size() / 4) << "n=" << length;
        EXPECT_GT(per_strand[1], sim.batch.size() / 4) << "n=" << length;
        EXPECT_GT(annotated_count, 2 * sim.batch.size()) << "n=" << length;

        // Windows clipped by the reference end, on both strands.
        for (std::uint32_t back = 1; back <= length + delta; back += 7) {
            repute::genomics::Read read;
            read.codes = reference.sequence().extract(
                reference.size() - length, length);
            ReadMapping m;
            m.position = static_cast<std::uint32_t>(reference.size()) - back;
            for (const auto strand : {Strand::Forward, Strand::Reverse}) {
                m.strand = strand;
                const auto banded =
                    annotate_mapping(reference, read, m, delta);
                const auto full = oracle_annotate(reference, read, m, delta);
                ASSERT_EQ(banded.has_value(), full.has_value())
                    << "back " << back;
                if (!full.has_value()) continue;
                EXPECT_EQ(banded->cigar, full->cigar) << "back " << back;
                EXPECT_EQ(banded->precise_position, full->precise_position);
            }
        }
    }
}

// ------------------------------------------------------- stage totals

TEST_F(CigarTest, StageTotalsSumToKernelOps) {
    const repute::filter::MemoryOptimizedSeeder seeder(12);
    KernelConfig config;
    std::vector<ReadMapping> out;
    StageTotals stages;
    repute::core::KernelScratch scratch;
    const auto ops = repute::core::map_read_workitem(
        *fm_, *reference_, seeder, sim_->batch.reads[0], 4, config, out,
        scratch, &stages);
    EXPECT_EQ(ops, stages.total_ops());
    EXPECT_GT(stages.filtration_ops, 0u);
    EXPECT_GT(stages.verify_ops, 0u);
}

TEST_F(CigarTest, DeviceRunsCarryStageBreakdown) {
    Device dev(test_profile());
    auto repute_mapper = repute::core::make_repute(*reference_, *fm_,
                                                   {{&dev, 1.0}});
    const auto result = repute_mapper->map(sim_->batch, 4);
    ASSERT_EQ(result.device_runs.size(), 1u);
    const auto& run = result.device_runs[0];
    EXPECT_EQ(run.stage.filtration_ops + run.stage.locate_ops +
                  run.stage.verify_ops,
              run.stats.total_ops);
    EXPECT_GT(run.stage.candidates, 0u);
}

TEST_F(CigarTest, StreamingFlowVerifiesMoreThanCollapsedFlow) {
    Device dev(test_profile());
    auto repute_mapper = repute::core::make_repute(*reference_, *fm_,
                                                   {{&dev, 1.0}});
    auto coral_mapper = repute::core::make_coral(*reference_, *fm_,
                                                 {{&dev, 1.0}});
    const auto repute_result = repute_mapper->map(sim_->batch, 4);
    const auto coral_result = coral_mapper->map(sim_->batch, 4);
    // CORAL re-verifies windows shared by several seeds.
    EXPECT_GT(coral_result.device_runs[0].stage.candidates,
              repute_result.device_runs[0].stage.candidates);
}

} // namespace
