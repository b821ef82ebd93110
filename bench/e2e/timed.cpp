// Timed runs: the end-to-end metrics, measured on the real binary with
// tracing off.

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "proc.hpp"
#include "runs.hpp"
#include "sam_check.hpp"
#include "serve_load.hpp"

namespace e2e {

using namespace repute;

namespace {

/// Set-up is short and noisy, so it is taken several times per run and
/// reported as the median.
constexpr int kSetupRuns = 5;
/// Closed-loop daemon clients, one connection each (the host has 4
/// CPUs; more clients would measure the load generator).
constexpr std::size_t kClients = 4;
constexpr std::size_t kDaemonHandlers = 2;
/// Daemon warm-up before the window opens.
constexpr double kWarmupSeconds = 2.0;
/// Length of the slices the daemon window is cut into.
constexpr double kSliceSeconds = 2.0;
/// Below this, mapping is broken rather than slightly less sensitive.
constexpr double kMinRecallPct = 90.0;

void sleep_until_s(double t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(t))));
}

void check_output(RunResult& r, const SamCheck& check) {
    if (check.missing > 0) {
        r.fail(std::to_string(check.missing) + " read(s) missing from SAM",
               check.missing);
    }
    if (check.unknown > 0) {
        r.fail(std::to_string(check.unknown) + " SAM record(s) of unknown reads",
               check.unknown);
    }
    if (check.recall_pct() < kMinRecallPct) {
        r.fail("recall " + std::to_string(check.recall_pct()) + "% below " +
                   std::to_string(kMinRecallPct) + "%",
               0);
    }
}

RunResult run_map(const Workload& w, const Inputs& inputs,
                  const RunOptions& options) {
    RunResult r;
    r.workload = w.name;
    const Truth truth = load_truth(inputs.truth(w.reads));
    const std::size_t reads = truth.names.size();
    const std::string log = options.out_dir + "/" + w.name + ".log";

    std::vector<double> setups;
    for (int i = 0; i < kSetupRuns; ++i) {
        const auto one = run_child(map_argv(w, inputs, options.repute, true), log);
        if (one.status != 0) {
            r.fail("one-read run exited with " + std::to_string(one.status), 1);
        }
        setups.push_back(one.wall_s);
    }

    // The warm-up run fills the page cache and gives the reference
    // output every timed run must reproduce byte for byte.
    const auto argv = map_argv(w, inputs, options.repute, false);
    const auto warm = run_child(argv, log);
    if (warm.status != 0) {
        r.fail("repute map exited with " + std::to_string(warm.status), reads);
    }
    const SamCheck check = check_sam(warm.out, truth, w.delta);
    check_output(r, check);

    std::vector<double> rate, cpu, rss, wall;
    const double start = now_s();
    do {
        const auto run = run_child(argv, log);
        r.attempted += reads;
        if (run.status != 0 || run.out != warm.out) {
            r.fail("timed run " + std::to_string(wall.size()) +
                       (run.status != 0 ? " failed" : " changed its SAM"),
                   reads);
        }
        rate.push_back(static_cast<double>(reads) / run.wall_s);
        cpu.push_back(run.cpu_s * 1e6 / static_cast<double>(reads));
        rss.push_back(run.max_rss_mb);
        wall.push_back(run.wall_s);
    } while (now_s() - start < options.seconds);

    r.add("setup_s", "s", median(setups), setups.size());
    r.add("reads_per_s", "reads/s", median(rate), rate.size());
    r.add("cpu_us_per_read", "us", median(cpu), cpu.size());
    r.add("peak_rss_mb", "MB", median(rss), rss.size());
    r.add("latency_p50_s", "s", median(wall), wall.size());
    r.add("latency_p90_s", "s", quantile(wall, 0.9), wall.size());
    r.add("recall_pct", "%", check.recall_pct(), check.reads);
    return r;
}

RunResult run_daemon(const Workload& w, const Inputs& inputs,
                     const RunOptions& options) {
    RunResult r;
    r.workload = w.name;
    const Truth truth = load_truth(inputs.truth(w.reads));
    const auto payloads = make_payloads(w, inputs, kPayloads);

    // Every response must equal the one-shot in-process SAM of its
    // payload; each payload is mapped once, up front.
    std::vector<std::string> expected(payloads.size());
    {
        const auto session = pipeline::MappingSession::from_rix(
            index_path(w, inputs), session_config(w));
        std::vector<std::thread> mappers;
        for (std::size_t t = 0; t < w.threads; ++t) {
            mappers.emplace_back([&, t] {
                for (std::size_t i = t; i < payloads.size(); i += w.threads) {
                    expected[i] = map_in_process(*session, w, payloads[i]);
                }
            });
        }
        for (auto& t : mappers) t.join();
    }
    std::string all_sam;
    for (const auto& sam : expected) all_sam += sam;
    const SamCheck check = check_sam(all_sam, truth, w.delta);
    check_output(r, check);

    const std::string socket = options.out_dir + "/" + w.name + ".sock";
    const std::string log = options.out_dir + "/" + w.name + ".log";
    std::vector<double> setups;
    LiveDaemon daemon;
    for (int i = 0; i < kSetupRuns; ++i) {
        if (daemon.process) daemon.process->stop();
        daemon = start_daemon(w, inputs, options.repute, socket,
                              kDaemonHandlers, log);
        setups.push_back(daemon.setup_s);
    }

    struct Call {
        double end = 0.0;
        ClientCall call;
        std::size_t payload = 0;
    };
    std::mutex calls_mutex;
    std::vector<Call> calls;
    const double window_start = now_s() + kWarmupSeconds;
    const double window_end = window_start + options.seconds;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            // Each client cycles through the whole pool from its own
            // offset, so the gzip payloads are spread across clients.
            for (std::size_t k = 4 * c; now_s() < window_end; ++k) {
                const std::size_t p = k % payloads.size();
                Call done{0.0, call_daemon(socket, w, payloads[p]), p};
                done.end = now_s();
                const std::lock_guard lock(calls_mutex);
                calls.push_back(std::move(done));
            }
        });
    }
    // The daemon's CPU clock is read at every slice boundary; rates are
    // medians over slices, so a few seconds of host contention move
    // them less than a whole-window mean.
    const std::size_t slices = std::max<std::size_t>(
        3, static_cast<std::size_t>(options.seconds / kSliceSeconds));
    const double slice_s = options.seconds / static_cast<double>(slices);
    std::vector<double> cpu_at;
    double peak_rss = 0.0;
    std::string sample_error;
    try {
        for (std::size_t i = 0; i <= slices; ++i) {
            sleep_until_s(window_start + slice_s * static_cast<double>(i));
            cpu_at.push_back(daemon.process->cpu_seconds());
        }
        peak_rss = daemon.process->peak_rss_mb();
    } catch (const std::exception& e) {
        sample_error = e.what();
    }
    for (auto& t : clients) t.join();
    if (!sample_error.empty()) throw std::runtime_error(sample_error);
    const int status = daemon.process->stop();
    if (status != 0) r.fail("repute serve exited with " + std::to_string(status), 0);

    std::vector<double> latency;
    std::vector<double> slice_reads(slices, 0.0);
    for (const auto& done : calls) {
        if (done.end < window_start || done.end >= window_end) continue;
        const auto& payload = payloads[done.payload];
        r.attempted += payload.count;
        if (!done.call.error.empty() || done.call.sam != expected[done.payload]) {
            r.fail("request for payload " + std::to_string(done.payload) +
                       (done.call.error.empty() ? " returned other SAM"
                                                : ": " + done.call.error),
                   payload.count);
            continue;
        }
        latency.push_back(done.call.latency_s);
        // A request's reads count toward each slice in proportion to
        // the part of its lifetime spent there, so slice rates are not
        // quantized to whole requests.
        const double begin = done.end - done.call.latency_s;
        for (std::size_t i = 0; i < slices; ++i) {
            const double lo = window_start + slice_s * static_cast<double>(i);
            const double overlap =
                std::min(done.end, lo + slice_s) - std::max(begin, lo);
            if (overlap > 0.0) {
                slice_reads[i] += static_cast<double>(payload.count) *
                                  overlap / done.call.latency_s;
            }
        }
    }
    if (latency.empty()) {
        throw std::runtime_error("no daemon request completed inside the window");
    }
    // The last slice misses the requests still in flight when the window
    // closes, so it is left out.
    std::vector<double> rate, cpu;
    for (std::size_t i = 0; i + 1 < slices; ++i) {
        rate.push_back(slice_reads[i] / slice_s);
        cpu.push_back((cpu_at[i + 1] - cpu_at[i]) * 1e6 / slice_reads[i]);
    }

    r.add("setup_s", "s", median(setups), setups.size());
    r.add("reads_per_s", "reads/s", median(rate), rate.size());
    r.add("cpu_us_per_read", "us", median(cpu), cpu.size());
    r.add("peak_rss_mb", "MB", peak_rss, 1);
    r.add("latency_p50_s", "s", median(latency), latency.size());
    r.add("latency_p90_s", "s", quantile(latency, 0.9), latency.size());
    r.add("recall_pct", "%", check.recall_pct(), check.reads);
    return r;
}

} // namespace

RunResult run_timed(const Workload& w, const Inputs& inputs,
                    const RunOptions& options) {
    return w.daemon ? run_daemon(w, inputs, options)
                    : run_map(w, inputs, options);
}

} // namespace e2e
