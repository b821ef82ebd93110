// e2e_bench — the repository's end-to-end benchmark program.
//
//   e2e_bench gen --seed S [--scale X]
//       generate (or reuse) the inputs under build-e2e/inputs/
//   e2e_bench run --workload a,b --seed S --seconds T --trace 0|1
//                 [--scale X] [--repeat N] [--binary-a P --binary-b P]
//                 [--out FILE] [--git SHA]
//       run workloads; the last stdout line is the summary JSON
//
// bench/e2e/run.sh builds this program and the `repute` CLI and is the
// one command users run; see bench/e2e/README.md.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "runs.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

#ifndef REPUTE_CLI_PATH
#error "REPUTE_CLI_PATH must name the repute binary built beside e2e_bench"
#endif

using namespace e2e;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const auto comma = csv.find(',', start);
        const auto end = comma == std::string::npos ? csv.size() : comma;
        if (end > start) out.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

GenConfig gen_config(const repute::util::Args& args, const std::string& repute) {
    GenConfig config;
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.scale = args.get_double("scale", 1.0);
    config.repute = repute;
    return config;
}

/// "<stem>.<side>.json" for paired-binary runs.
std::string side_path(const std::string& out, const std::string& side) {
    const std::filesystem::path path(out);
    return (path.parent_path() / path.stem()).string() + "." + side + ".json";
}

int run(const repute::util::Args& args) {
    const bool trace = args.get_int("trace", 0) != 0;
    const double seconds = args.get_double("seconds", 10.0);
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    const auto repeat =
        static_cast<std::size_t>(std::max<std::int64_t>(args.get_int("repeat", 1), 1));

    std::vector<const Workload*> selected;
    const std::string names = args.get_string("workload", "");
    if (names.empty()) {
        for (const auto& w : workloads()) selected.push_back(&w);
    } else {
        for (const auto& name : split_csv(names)) {
            selected.push_back(&find_workload(name));
        }
    }

    // Side "a" alone, or "a" and "b" alternating which runs first.
    std::vector<std::pair<std::string, std::string>> sides;
    if (args.has("binary-a") || args.has("binary-b")) {
        sides = {{"a", args.get_string("binary-a", "")},
                 {"b", args.get_string("binary-b", "")}};
        if (sides[0].second.empty() || sides[1].second.empty()) {
            throw std::invalid_argument("--binary-a and --binary-b go together");
        }
    } else {
        sides = {{"", REPUTE_CLI_PATH}};
    }

    RunOptions options;
    options.seconds = seconds;
    std::filesystem::create_directories(options.out_dir);
    const Inputs inputs = generate_inputs(gen_config(args, sides[0].second));

    std::vector<RunResult> results;
    for (std::size_t rep = 0; rep < repeat; ++rep) {
        for (const Workload* w : selected) {
            for (std::size_t k = 0; k < sides.size(); ++k) {
                const auto& side = sides[(k + rep) % sides.size()];
                options.repute = side.second;
                RunResult result = trace ? run_traced(*w, inputs, options)
                                         : run_timed(*w, inputs, options);
                result.side = side.first;
                result.repeat = rep;
                print_result(result);
                results.push_back(std::move(result));
            }
        }
    }

    HostContext host;
    host.git = args.get_string("git", "unknown");
    host.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    host.seconds = seconds;
    host.scale = args.get_double("scale", 1.0);
    host.trace = trace;
    const std::string out = args.get_string(
        "out", options.out_dir + (trace ? "/traced.json" : "/results.json"));
    if (sides.size() == 1) {
        write_result_file(out, host, results);
    } else {
        for (const auto& [side, binary] : sides) {
            std::vector<RunResult> mine;
            for (const auto& r : results) {
                if (r.side == side) mine.push_back(r);
            }
            host.git = args.get_string("git", "unknown") + " (" + binary + ")";
            write_result_file(side_path(out, side), host, mine);
        }
    }

    // One-run summary, or medians over repeats of the first side.
    std::vector<RunResult> summary;
    for (const Workload* w : selected) {
        std::vector<const RunResult*> runs;
        RunResult merged;
        for (const auto& r : results) {
            if (r.workload != w->name || r.side != sides[0].first) continue;
            runs.push_back(&r);
            merged.attempted += r.attempted;
            merged.failed += r.failed;
            for (const auto& p : r.problems) merged.problems.push_back(p);
        }
        merged.workload = w->name;
        for (std::size_t m = 0; m < runs.front()->metrics.size(); ++m) {
            std::vector<double> values;
            for (const auto* r : runs) values.push_back(r->metrics[m].value);
            const auto& first = runs.front()->metrics[m];
            merged.add(first.name, first.unit, median(values), values.size());
        }
        summary.push_back(std::move(merged));
    }
    bool all_correct = true;
    for (const auto& r : results) all_correct = all_correct && r.correct();
    std::printf("%s\n", summary_json(summary).c_str());
    return all_correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    // A daemon that dies mid-request must fail the run, not kill it.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        if (argc < 2) {
            std::fputs("usage: e2e_bench gen|run [options] (see README.md)\n",
                       stderr);
            return 2;
        }
        const std::string command = argv[1];
        const repute::util::Args args(argc - 1, argv + 1);
        if (command == "gen") {
            const Inputs inputs = generate_inputs(gen_config(args, REPUTE_CLI_PATH));
            std::printf("%s\n%s\n", inputs.genome_dir.c_str(),
                        inputs.reads_dir.c_str());
            return 0;
        }
        if (command == "run") return run(args);
        std::fprintf(stderr, "e2e_bench: unknown command '%s'\n", command.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
}
