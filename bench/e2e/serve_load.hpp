#pragma once
// Talking to the `repute serve` daemon: request payloads, the expected
// (in-process) responses, readiness and timed client calls.

#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "pipeline/mapping_api.hpp"
#include "proc.hpp"
#include "workloads.hpp"

namespace e2e {

struct Payload {
    std::string reads;      ///< FASTQ bytes, possibly gzip
    std::string reads2;     ///< mates; empty for single-end
    std::size_t count = 0;  ///< reads plus mates
};

/// Splits the workload's read set into payloads of kPayloadReads
/// records (pairs), at most `max` of them. The daemon workload's pool
/// gzips every 4th payload, as clients shipping .gz files would.
std::vector<Payload> make_payloads(const Workload& w, const Inputs& inputs,
                                   std::size_t max);

/// The SAM a one-shot in-process MappingSession::map returns for the
/// payload, with the daemon's request knobs.
std::string map_in_process(repute::pipeline::MappingSession& session,
                           const Workload& w, const Payload& payload);

struct ClientCall {
    double latency_s = 0.0; ///< submit to Done frame
    double ttfb_s = 0.0;    ///< submit to first SAM byte
    std::string sam;
    std::string error;      ///< non-empty when the call threw
};

/// One request through serve::run_client, timed.
ClientCall call_daemon(const std::string& socket, const Workload& w,
                       const Payload& payload);

/// A `repute serve` child that is accepting connections.
struct LiveDaemon {
    std::unique_ptr<Daemon> process;
    double setup_s = 0.0; ///< spawn to first accepted connection
};

/// Spawns the daemon and waits until a connection is accepted; that
/// probe connection then completes a one-read request so the daemon
/// sees a well-formed conversation. Throws if the daemon exits or is
/// not ready within 60 s.
LiveDaemon start_daemon(const Workload& w, const Inputs& inputs,
                        const std::string& repute, const std::string& socket,
                        std::size_t handlers, const std::string& log);

} // namespace e2e
