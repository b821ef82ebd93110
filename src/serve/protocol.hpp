#pragma once
// Wire protocol of the mapping daemon (`repute serve`).
//
// Transport: a Unix-domain SOCK_STREAM socket, one mapping request per
// connection. Every message is a length-prefixed frame:
//
//   u32 payload_bytes (little-endian) | u8 type | payload
//
// Conversation:
//   client -> server   Request       (exactly one)
//   server -> client   SamChunk *    (SAM bytes, in order, chunked)
//   server -> client   Done | Error  (terminal; Done carries a summary
//                                     line, Error a diagnostic)
//
// The request payload is a fixed little-endian header (per-request
// mapping knobs — the wire twin of pipeline::MapRequest) followed by
// length-prefixed tenant / reads / mates byte blobs, then optional
// trailing extension fields (currently: u32 length_grid). The header
// keeps one retired u32 slot, once a fixed read length: encoders write
// 0 there and decoders reject any other value, so a request that asks
// for the retired fixed-length mode fails loudly. Decoders
// default any absent trailing field, so payloads from older clients —
// which simply end after the blobs — keep working; newer clients
// talking to an older server are rejected by its trailing-bytes check,
// a loud failure rather than silent misconfiguration. Kernel- and
// index-level knobs are deliberately NOT on the wire: they are fixed at
// session construction (`repute serve --index ...`), so every request
// maps against the same resident index with the same kernel config —
// requests only choose delta, batching, pairing and output shape.
// Read blobs may themselves be gzip-compressed (the FASTX layer sniffs
// the magic), so clients can ship .gz files byte-for-byte.
//
// Frames are capped (kMaxFrameBytes) so a corrupt or hostile length
// prefix cannot make the server allocate unbounded memory.

#include <cstdint>
#include <string>

namespace repute::serve {

enum class FrameType : std::uint8_t {
    Request = 1,
    SamChunk = 2,
    Done = 3,
    Error = 4,
};

/// Hard per-frame ceiling (1 GiB) — rejects corrupt length prefixes.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// SAM bytes accumulated before a SamChunk frame is flushed.
constexpr std::size_t kSamChunkBytes = 64 * 1024;

struct Frame {
    FrameType type = FrameType::Error;
    std::string payload;
};

/// Blocking frame I/O over a connected socket fd. Both loop over
/// EINTR/short transfers; both throw std::runtime_error on EOF
/// mid-frame, oversized frames, or socket errors.
void write_frame(int fd, FrameType type, const void* payload,
                 std::size_t bytes);
Frame read_frame(int fd);

/// The per-request knobs carried on the wire (see header comment for
/// what intentionally is not here).
struct WireRequest {
    std::uint32_t delta = 5;
    std::uint8_t cigar = 1;
    std::uint8_t fail_on_malformed = 0;
    std::uint32_t map_workers = 1;
    std::uint32_t batch_size = 4096;
    std::uint32_t queue_depth = 4;
    std::uint32_t min_insert = 200;
    std::uint32_t max_insert = 600;
    std::string tenant;
    std::string reads;  ///< FASTQ/FASTA payload bytes (may be gzip)
    std::string reads2; ///< second mates; empty = single-end
    /// Trailing extension field: length-class quantization grid for
    /// bucketed requests. Absent on the wire (old clients) = 16.
    std::uint32_t length_grid = 16;
};

/// Serializes `request` into a Request-frame payload.
std::string encode_request(const WireRequest& request);

/// Parses a Request-frame payload; throws std::runtime_error on a
/// truncated or malformed payload, or a non-zero retired slot.
WireRequest decode_request(const std::string& payload);

} // namespace repute::serve
