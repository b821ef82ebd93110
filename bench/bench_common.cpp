#include "bench_common.hpp"

#include <cstdio>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace repute::bench {

WorkloadConfig parse_workload_config(const util::Args& args) {
    WorkloadConfig config;
    config.genome_length = static_cast<std::size_t>(
        args.get_int("genome", static_cast<std::int64_t>(
                                   config.genome_length)));
    config.n_reads = static_cast<std::size_t>(args.get_int(
        "reads", static_cast<std::int64_t>(config.n_reads)));
    config.seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(config.seed)));
    config.repeat_fraction =
        args.get_double("repeat-frac", config.repeat_fraction);
    config.repeat_divergence =
        args.get_double("divergence", config.repeat_divergence);
    if (args.get_bool("quick", false)) {
        config.genome_length /= 4;
        config.n_reads /= 4;
    }
    return config;
}

FunnelToggles parse_funnel_toggles(const util::Args& args) {
    FunnelToggles toggles;
    toggles.coalesce_windows = !args.get_bool("no-coalesce", false);
    if (!toggles.coalesce_windows) {
        std::printf("# funnel layers: coalesce=OFF\n");
    }
    return toggles;
}

void apply_transfer_specs(const std::vector<ocl::Device*>& devices) {
    ocl::TransferSpec pcie;
    pcie.bytes_per_second = 6e9; // PCIe gen2 x16 effective
    pcie.latency_seconds = 20e-6;
    ocl::TransferSpec shared;
    shared.bytes_per_second = 12e9; // host-visible / unified memory
    shared.latency_seconds = 5e-6;
    for (ocl::Device* device : devices) {
        device->set_transfer_spec(
            device->profile().type == ocl::DeviceType::Gpu ? pcie
                                                           : shared);
    }
}

void apply_transfer_specs(ocl::Platform& platform) {
    apply_transfer_specs(platform.devices());
}

bool parse_double_buffer(const util::Args& args) {
    const bool on = !args.get_bool("no-double-buffer", false);
    if (!on) std::printf("# double-buffered staging: OFF\n");
    return on;
}

Workload make_workload(const WorkloadConfig& config) {
    util::Stopwatch timer;
    std::printf("# workload: genome=%zu bp, reads=%zu per set, seed=%llu\n",
                config.genome_length, config.n_reads,
                static_cast<unsigned long long>(config.seed));

    genomics::GenomeSimConfig gconfig;
    gconfig.length = config.genome_length;
    gconfig.seed = config.seed;
    gconfig.interspersed_fraction = config.repeat_fraction;
    gconfig.repeat_divergence = config.repeat_divergence;
    gconfig.n_repeat_families = 16;
    genomics::Reference reference = genomics::simulate_genome(gconfig);
    std::printf("# genome simulated in %.1fs\n", timer.seconds());

    Workload w;
    w.session = pipeline::MappingSession::from_multi(
        genomics::MultiReference(std::move(reference)));
    std::printf("# FM-index built in %.1fs (%.1f MB)\n",
                w.session->index_seconds(),
                static_cast<double>(w.fm().memory_bytes()) / 1e6);

    genomics::ReadSimConfig r100;
    r100.n_reads = config.n_reads;
    r100.read_length = 100;
    r100.max_errors = 5;
    r100.seed = config.seed * 1000 + 100;
    w.reads100 = genomics::simulate_reads(w.reference(), r100);

    genomics::ReadSimConfig r150;
    r150.n_reads = config.n_reads;
    r150.read_length = 150;
    r150.max_errors = 7;
    r150.seed = config.seed * 1000 + 150;
    w.reads150 = genomics::simulate_reads(w.reference(), r150);
    return w;
}

void print_table(const std::string& title, const std::vector<Row>& rows) {
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%-14s", "mapper");
    for (const Cell& cell : paper_cells()) {
        std::printf(" | n=%zu d=%u        ", cell.read_length, cell.delta);
    }
    std::printf("\n%-14s", "");
    for (std::size_t i = 0; i < paper_cells().size(); ++i) {
        std::printf(" | %8s %8s", "T(s)", "A(%)");
    }
    std::printf("\n");
    for (const Row& row : rows) {
        std::printf("%-14s", row.name.c_str());
        for (std::size_t i = 0; i < row.time_s.size(); ++i) {
            std::printf(" | %8.3f %8.2f", row.time_s[i],
                        row.accuracy_pct[i]);
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

ScopedTrace::ScopedTrace(const util::Args& args)
    : path_(args.get_string("trace", "")) {
    if (!path_.empty()) {
        session_ = std::make_unique<obs::TraceSession>();
        std::printf("# tracing enabled, writing %s on exit\n",
                    path_.c_str());
    }
}

ScopedTrace::~ScopedTrace() {
    if (!session_) return;
    const std::string json = obs::chrome_trace_json(session_->recorder());
    if (std::FILE* f = std::fopen(path_.c_str(), "wb")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("\n# trace written to %s (%zu bytes) — open in "
                    "chrome://tracing or https://ui.perfetto.dev\n",
                    path_.c_str(), json.size());
    } else {
        std::fprintf(stderr, "# ERROR: cannot write trace to %s\n",
                     path_.c_str());
    }
    std::printf("\n== per-stage summary ==\n%s",
                obs::stage_summary(session_->recorder(),
                                   &session_->registry())
                    .c_str());
    const std::string xfer = obs::xfer_summary(session_->registry());
    if (!xfer.empty()) {
        std::printf("\n== host<->device transfers ==\n%s", xfer.c_str());
    }
    std::fflush(stdout);
}

void print_series(const std::string& title, const std::string& x_label,
                  const std::vector<double>& x,
                  const std::string& y_label,
                  const std::vector<double>& y) {
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%16s %16s\n", x_label.c_str(), y_label.c_str());
    for (std::size_t i = 0; i < x.size(); ++i) {
        std::printf("%16.0f %16.4f\n", x[i], y[i]);
    }
    std::fflush(stdout);
}

} // namespace repute::bench
