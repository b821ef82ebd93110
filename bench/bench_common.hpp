#pragma once
// Shared workload and reporting plumbing for the paper-reproduction
// benches.
//
// Scale note: the paper maps 1M reads per read-length against human
// chromosome 21 (46.7 Mbp). The default bench workload is a 4 Mbp
// repeat-rich synthetic chromosome ("chr21-sim") and 20k reads per
// read-length so that the whole suite finishes in minutes; every bench
// accepts --genome/--reads/--seed to scale toward the paper. Reported
// times are *modeled device seconds* (see ocl::Device) — deterministic
// and host-independent; compare ratios and shapes against the paper,
// not absolute values.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/mapping.hpp"
#include "core/repute_mapper.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "ocl/platform.hpp"
#include "pipeline/mapping_api.hpp"
#include "util/args.hpp"

namespace repute::obs {
class TraceSession;
}

namespace repute::bench {

struct Workload {
    /// The reference + index fixture is built through the public
    /// MappingSession API (the same construction path the CLI and the
    /// daemon use); benches that drive mappers by hand borrow the
    /// session's reference and index via the accessors below.
    std::unique_ptr<pipeline::MappingSession> session;
    /// ERR012100_1 stand-in: n=100, errors up to 5 (mapped at delta 3-5).
    genomics::SimulatedReads reads100;
    /// SRR826460_1 stand-in: n=150, errors up to 7 (mapped at delta 5-7).
    genomics::SimulatedReads reads150;

    const genomics::Reference& reference() const {
        return session->multi().concatenated();
    }
    const index::FmIndex& fm() const { return session->fm(); }

    const genomics::SimulatedReads& reads(std::size_t n) const {
        return n == 100 ? reads100 : reads150;
    }
};

struct WorkloadConfig {
    std::size_t genome_length = 6'000'000;
    std::size_t n_reads = 4'000;
    std::uint64_t seed = 21;
    /// Repeat structure: chr21 is ~46% repeat-derived with young Alu
    /// families well under 5% divergence — the multiplicity those
    /// repeats give k-mers is what separates the filtration strategies.
    double repeat_fraction = 0.50;
    double repeat_divergence = 0.025;
};

/// Parses --genome/--reads/--seed (and --quick, which shrinks both by
/// 4x) into a WorkloadConfig.
WorkloadConfig parse_workload_config(const util::Args& args);

/// Verification-funnel escape hatch: --no-coalesce turns off the
/// shared window fetch (see DESIGN.md "Verification funnel"). It is
/// output-neutral, so it only exists for before/after timing.
struct FunnelToggles {
    bool coalesce_windows = true;

    void apply(core::KernelConfig& kernel) const {
        kernel.coalesce_windows = coalesce_windows;
    }
};
FunnelToggles parse_funnel_toggles(const util::Args& args);

/// Installs host<->device link models on the devices: discrete GPUs get
/// a PCIe-gen2-class link (6 GB/s, 20 us latency), CPUs and embedded
/// SoCs a shared-memory-class link (12 GB/s, 5 us). Sweep benches call
/// this so modeled times include staging cost and the double-buffer
/// path actually has transfers to hide.
void apply_transfer_specs(const std::vector<ocl::Device*>& devices);
void apply_transfer_specs(ocl::Platform& platform);

/// Parses --no-double-buffer (default: double buffering on).
bool parse_double_buffer(const util::Args& args);

/// Builds the genome, index and both read sets. Prints progress to
/// stdout (benches are interactive tools).
Workload make_workload(const WorkloadConfig& config);

/// The paper's sweep: (read length, delta) cells of Tables I-III.
struct Cell {
    std::size_t read_length;
    std::uint32_t delta;
};
inline const std::vector<Cell>& paper_cells() {
    static const std::vector<Cell> cells = {{100, 3}, {100, 4}, {100, 5},
                                            {150, 5}, {150, 6}, {150, 7}};
    return cells;
}

/// One mapper row of a table: modeled time and accuracy per cell.
struct Row {
    std::string name;
    std::vector<double> time_s;
    std::vector<double> accuracy_pct;
};

/// Prints a paper-style table: header with the cells, one row per
/// mapper, "T(s) A(%)" pairs.
void print_table(const std::string& title, const std::vector<Row>& rows);

/// Prints a two-column series (figures 3/4).
void print_series(const std::string& title, const std::string& x_label,
                  const std::vector<double>& x,
                  const std::string& y_label,
                  const std::vector<double>& y);

/// `--trace out.json` support: when the flag is present, installs a
/// global obs::TraceSession for the scope's lifetime; the destructor
/// writes the Chrome-trace JSON (load in chrome://tracing or Perfetto)
/// to the given path and prints the per-stage summary to stdout.
/// Without the flag this is inert and the instrumented code keeps its
/// no-recorder fast path. Construct once at the top of main().
class ScopedTrace {
public:
    explicit ScopedTrace(const util::Args& args);
    ~ScopedTrace();
    ScopedTrace(const ScopedTrace&) = delete;
    ScopedTrace& operator=(const ScopedTrace&) = delete;

    bool active() const noexcept { return session_ != nullptr; }

private:
    std::string path_;
    std::unique_ptr<obs::TraceSession> session_;
};

} // namespace repute::bench
