#include "serve_load.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/gzip_stream.hpp"

namespace e2e {

using namespace repute;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// FASTQ text cut into chunks of `records` 4-line records.
std::vector<std::string> fastq_chunks(const std::string& text,
                                      std::size_t records) {
    std::vector<std::string> chunks;
    std::size_t pos = 0, lines = 0, start = 0;
    while (pos < text.size()) {
        pos = text.find('\n', pos);
        pos = pos == std::string::npos ? text.size() : pos + 1;
        if (++lines == 4 * records || pos == text.size()) {
            chunks.push_back(text.substr(start, pos - start));
            start = pos;
            lines = 0;
        }
    }
    return chunks;
}

/// Captures SAM bytes and the time the first one arrives.
class FirstByteBuf final : public std::streambuf {
public:
    explicit FirstByteBuf(std::string& out) : out_(&out) {}
    double first_byte_s = -1.0;

protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        if (n > 0 && first_byte_s < 0) first_byte_s = now_s();
        out_->append(s, static_cast<std::size_t>(n));
        return n;
    }
    int overflow(int ch) override {
        if (ch != traits_type::eof()) {
            const char c = static_cast<char>(ch);
            xsputn(&c, 1);
        }
        return ch;
    }

private:
    std::string* out_;
};

serve::WireRequest wire_for(const Workload& w, const Payload& payload) {
    serve::WireRequest request = wire_request(w);
    request.reads = payload.reads;
    request.reads2 = payload.reads2;
    return request;
}

/// connect() to the socket; -1 while nobody listens.
int try_connect(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error(std::strerror(errno));
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        return fd;
    }
    close(fd);
    return -1;
}

} // namespace

std::vector<Payload> make_payloads(const Workload& w, const Inputs& inputs,
                                   std::size_t max) {
    const int mate = w.paired() ? 1 : 0;
    const auto first =
        fastq_chunks(slurp(inputs.fastq(w.reads, mate)), kPayloadReads);
    std::vector<std::string> second;
    if (w.paired()) {
        second = fastq_chunks(slurp(inputs.fastq(w.reads, 2)), kPayloadReads);
    }
    std::vector<Payload> payloads;
    for (std::size_t i = 0; i < first.size() && i < max; ++i) {
        Payload p;
        p.reads = first[i];
        std::size_t lines = 0;
        for (const char c : p.reads) lines += c == '\n';
        p.count = lines / 4;
        if (w.paired()) {
            p.reads2 = second.at(i);
            p.count *= 2;
        }
        if (w.daemon && i % 4 == 0) p.reads = util::gzip_compress(p.reads);
        payloads.push_back(std::move(p));
    }
    return payloads;
}

std::string map_in_process(pipeline::MappingSession& session,
                           const Workload& w, const Payload& payload) {
    std::istringstream reads(payload.reads), reads2(payload.reads2);
    pipeline::MapRequest request = map_request(w);
    request.reads = &reads;
    request.reads2 = w.paired() ? &reads2 : nullptr;
    std::ostringstream sam;
    session.map(request, sam);
    return std::move(sam).str();
}

ClientCall call_daemon(const std::string& socket, const Workload& w,
                       const Payload& payload) {
    ClientCall call;
    const serve::WireRequest request = wire_for(w, payload);
    FirstByteBuf buf(call.sam);
    std::ostream out(&buf);
    const double start = now_s();
    try {
        serve::run_client(socket, request, out);
    } catch (const std::exception& e) {
        call.error = e.what();
    }
    call.latency_s = now_s() - start;
    call.ttfb_s = buf.first_byte_s < 0 ? call.latency_s
                                       : buf.first_byte_s - start;
    return call;
}

LiveDaemon start_daemon(const Workload& w, const Inputs& inputs,
                        const std::string& repute, const std::string& socket,
                        std::size_t handlers, const std::string& log) {
    unlink(socket.c_str());
    LiveDaemon live;
    const double start = now_s();
    live.process = std::make_unique<Daemon>(
        serve_argv(w, inputs, repute, socket, handlers), log);
    int fd = -1;
    while ((fd = try_connect(socket)) < 0) {
        if (live.process->exited()) {
            throw std::runtime_error("repute serve exited at start (see " +
                                     log + ")");
        }
        if (now_s() - start > 60.0) {
            throw std::runtime_error("repute serve not ready after 60 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    live.setup_s = now_s() - start;

    Payload probe;
    probe.reads = slurp(inputs.one_read(w.reads, w.paired() ? 1 : 0));
    if (w.paired()) probe.reads2 = slurp(inputs.one_read(w.reads, 2));
    const std::string frame = serve::encode_request(wire_for(w, probe));
    try {
        serve::write_frame(fd, serve::FrameType::Request, frame.data(),
                           frame.size());
        for (;;) {
            const auto reply = serve::read_frame(fd);
            if (reply.type == serve::FrameType::Done) break;
            if (reply.type == serve::FrameType::Error) {
                throw std::runtime_error("probe request failed: " +
                                         reply.payload);
            }
        }
    } catch (...) {
        close(fd);
        throw;
    }
    close(fd);
    return live;
}

} // namespace e2e
