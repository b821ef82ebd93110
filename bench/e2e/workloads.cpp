#include "workloads.hpp"

#include <stdexcept>

namespace e2e {

using namespace repute;

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = [] {
        std::vector<Workload> list;
        {
            // The default user path: gzip input, CIGAR on, 2 threads.
            // The SAM writer (render + CIGAR re-alignment) dominates.
            Workload w;
            w.name = "map_mixed_gz";
            w.reads = ReadSet::Mixed;
            w.gz = true;
            w.threads = 2;
            list.push_back(w);
        }
        {
            // The paper's hardest cell (n = 150, delta = 7) with CIGAR
            // off: the map kernel dominates and render is small.
            Workload w;
            w.name = "map_kernel_150";
            w.reads = ReadSet::Uniform;
            w.delta = 7;
            w.cigar = false;
            list.push_back(w);
        }
        {
            // Scatter-gather over 4 shards, mate rescue and the dynamic
            // scheduler on the embedded HiKey970 platform.
            Workload w;
            w.name = "map_paired_sharded";
            w.reads = ReadSet::Pairs;
            w.sharded = true;
            w.platform = "system2";
            w.devices = {"hikey970-a73", "hikey970-a53"};
            w.dynamic = true;
            list.push_back(w);
        }
        {
            // Many small requests from 4 closed-loop clients over 2
            // mappers: per-request costs and fair-share queueing.
            Workload w;
            w.name = "serve_closed_loop";
            w.daemon = true;
            w.reads = ReadSet::Serve;
            w.threads = 2;
            list.push_back(w);
        }
        return list;
    }();
    return all;
}

const Workload& find_workload(const std::string& name) {
    std::string known;
    for (const auto& w : workloads()) {
        if (w.name == name) return w;
        known += " " + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "'; known:" + known);
}

std::string index_path(const Workload& w, const Inputs& inputs) {
    return w.sharded ? inputs.rixm() : inputs.rix();
}

namespace {

std::vector<std::string> session_flags(const Workload& w) {
    std::string devices;
    for (const auto& d : w.devices) devices += (devices.empty() ? "" : ",") + d;
    std::vector<std::string> flags = {"--platform", w.platform, "--devices",
                                      devices};
    if (w.dynamic) {
        flags.push_back("--schedule");
        flags.push_back("dynamic");
    }
    return flags;
}

} // namespace

std::vector<std::string> map_argv(const Workload& w, const Inputs& inputs,
                                  const std::string& repute, bool one_read) {
    std::vector<std::string> argv = {repute, "map", "--index",
                                     index_path(w, inputs)};
    const int mate = w.paired() ? 1 : 0;
    argv.push_back("--reads");
    argv.push_back(one_read ? inputs.one_read(w.reads, mate)
                            : inputs.fastq(w.reads, mate, w.gz));
    if (w.paired()) {
        argv.push_back("--reads2");
        argv.push_back(one_read ? inputs.one_read(w.reads, 2)
                                : inputs.fastq(w.reads, 2, w.gz));
    }
    const auto flags = session_flags(w);
    argv.insert(argv.end(), flags.begin(), flags.end());
    argv.insert(argv.end(),
                {"--threads", std::to_string(w.threads), "--delta",
                 std::to_string(w.delta), "--cigar",
                 w.cigar ? "true" : "false", "--out", "-"});
    return argv;
}

std::vector<std::string> serve_argv(const Workload& w, const Inputs& inputs,
                                    const std::string& repute,
                                    const std::string& socket,
                                    std::size_t handlers) {
    std::vector<std::string> argv = {repute, "serve", "--index",
                                     index_path(w, inputs), "--socket",
                                     socket};
    const auto flags = session_flags(w);
    argv.insert(argv.end(), flags.begin(), flags.end());
    argv.insert(argv.end(), {"--handlers", std::to_string(handlers),
                             "--mappers", std::to_string(w.threads)});
    return argv;
}

pipeline::SessionConfig session_config(const Workload& w) {
    pipeline::SessionConfig config;
    config.platform = w.platform;
    config.devices = w.devices;
    config.schedule =
        w.dynamic ? core::ScheduleMode::Dynamic : core::ScheduleMode::StaticSplit;
    config.mapper_pool = w.threads;
    return config;
}

pipeline::MapRequest map_request(const Workload& w) {
    pipeline::MapRequest request;
    request.delta = w.delta;
    request.cigar = w.cigar;
    request.map_workers = 1;
    return request;
}

serve::WireRequest wire_request(const Workload& w) {
    serve::WireRequest request;
    request.delta = w.delta;
    request.cigar = w.cigar ? 1 : 0;
    request.map_workers = 1;
    return request;
}

} // namespace e2e
