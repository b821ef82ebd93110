#pragma once
// The four benchmark workloads. Each is described once, here, and both
// the `repute` command line of the timed runs and the in-process
// configuration of the traced replay are derived from that description,
// so the two cannot drift apart.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "pipeline/mapping_api.hpp"
#include "serve/protocol.hpp"

namespace e2e {

struct Workload {
    std::string name;
    bool daemon = false;  ///< `repute serve` under closed-loop clients
    ReadSet reads = ReadSet::Mixed;
    bool gz = false;      ///< map the gzip twin of the read set
    bool sharded = false; ///< map through ref.rixm instead of ref.rix
    std::uint32_t delta = 5;
    bool cigar = true;
    std::size_t threads = 1; ///< map: --threads; daemon: --mappers
    std::string platform = "system1";
    std::vector<std::string> devices{"i7-2600"};
    bool dynamic = false; ///< --schedule dynamic

    bool paired() const { return reads == ReadSet::Pairs; }
};

const std::vector<Workload>& workloads();
/// Throws std::invalid_argument naming the known workloads.
const Workload& find_workload(const std::string& name);

/// `repute map` over the workload's full input, or over its one-read
/// input when `one_read` is set; SAM goes to stdout.
std::vector<std::string> map_argv(const Workload& w, const Inputs& inputs,
                                  const std::string& repute, bool one_read);

/// `repute serve` with the workload's session flags; `handlers`
/// request handlers and w.threads mappers.
std::vector<std::string> serve_argv(const Workload& w, const Inputs& inputs,
                                    const std::string& repute,
                                    const std::string& socket,
                                    std::size_t handlers);

/// The session the CLI builds from the same flags.
repute::pipeline::SessionConfig session_config(const Workload& w);

/// The per-request knobs the CLI sets from the same flags.
repute::pipeline::MapRequest map_request(const Workload& w);

/// The wire twin of map_request (one mapper per request).
repute::serve::WireRequest wire_request(const Workload& w);

std::string index_path(const Workload& w, const Inputs& inputs);

} // namespace e2e
