#include "serve/server.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "pipeline/bounded_queue.hpp"
#include "serve/protocol.hpp"

namespace repute::serve {

namespace {

/// std::streambuf that frames buffered SAM bytes as SamChunk messages —
/// the emitter writes into an ostream as usual and chunks leave the
/// socket as they fill, so response streaming overlaps mapping.
class FrameStreambuf final : public std::streambuf {
public:
    explicit FrameStreambuf(int fd) : fd_(fd) {
        buffer_.resize(kSamChunkBytes);
        setp(buffer_.data(), buffer_.data() + buffer_.size());
    }

    void flush_chunk() {
        const auto bytes = static_cast<std::size_t>(pptr() - pbase());
        if (bytes > 0) {
            write_frame(fd_, FrameType::SamChunk, pbase(), bytes);
            setp(buffer_.data(), buffer_.data() + buffer_.size());
        }
    }

protected:
    int overflow(int ch) override {
        flush_chunk();
        if (ch != traits_type::eof()) {
            *pptr() = static_cast<char>(ch);
            pbump(1);
        }
        return ch;
    }
    int sync() override {
        flush_chunk();
        return 0;
    }

private:
    int fd_;
    std::vector<char> buffer_;
};

void throw_errno(const std::string& what) {
    throw std::runtime_error("serve: " + what + ": " +
                             std::strerror(errno));
}

} // namespace

Server::Server(pipeline::MappingSession& session, ServerConfig config)
    : session_(&session), config_(std::move(config)) {
    if (config_.socket_path.empty()) {
        throw std::runtime_error("serve: socket path required");
    }
    if (config_.handlers == 0) config_.handlers = 1;

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("serve: socket path too long: " +
                                 config_.socket_path);
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    ::unlink(config_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        errno = saved;
        throw_errno("bind " + config_.socket_path);
    }
    if (::listen(listen_fd_, 64) != 0) throw_errno("listen");

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw_errno("pipe");
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
}

Server::~Server() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
    ::unlink(config_.socket_path.c_str());
}

void Server::stop() noexcept {
    const char byte = 's';
    // Ignore the result: either the byte lands and poll() wakes, or the
    // pipe is already gone because run() finished.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write_fd_, &byte, 1);
}

std::size_t Server::run() {
    pipeline::BoundedQueue<int> admission(config_.pending);

    std::vector<std::thread> handlers;
    handlers.reserve(config_.handlers);
    for (std::size_t h = 0; h < config_.handlers; ++h) {
        handlers.emplace_back([&] {
            while (auto fd = admission.pop()) {
                handle_connection(*fd);
                ::close(*fd);
            }
        });
    }

    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                         {wake_read_fd_, POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR) continue;
            admission.close();
            for (auto& t : handlers) t.join();
            throw_errno("poll");
        }
        if (fds[1].revents != 0) break; // stop() requested
        if ((fds[0].revents & POLLIN) == 0) continue;
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            admission.close();
            for (auto& t : handlers) t.join();
            throw_errno("accept");
        }
        if (auto* registry = obs::metrics()) {
            registry->gauge("serve.admission_queue_depth")
                .set(static_cast<double>(admission.depth()));
        }
        if (!admission.push(client)) {
            ::close(client); // queue closed: shutting down
            break;
        }
    }

    // Drain: no new admissions, but queued + in-flight requests finish.
    admission.close();
    for (auto& t : handlers) t.join();
    return handled_.load();
}

void Server::handle_connection(int fd) {
    try {
        const Frame frame = read_frame(fd);
        if (frame.type != FrameType::Request) {
            throw std::runtime_error(
                "serve: expected a Request frame first");
        }
        const WireRequest wire = decode_request(frame.payload);

        std::istringstream reads(wire.reads);
        std::istringstream reads2(wire.reads2);
        pipeline::MapRequest request;
        request.reads = &reads;
        request.reads2 = wire.reads2.empty() ? nullptr : &reads2;
        request.delta = wire.delta;
        request.cigar = wire.cigar != 0;
        request.map_workers = wire.map_workers;
        request.queue_depth = wire.queue_depth;
        request.reader.batch_size = wire.batch_size;
        request.reader.length_grid = wire.length_grid;
        request.reader.on_malformed = wire.fail_on_malformed != 0
                                          ? pipeline::OnMalformed::Fail
                                          : pipeline::OnMalformed::Drop;
        request.pair.min_insert = wire.min_insert;
        request.pair.max_insert = wire.max_insert;
        request.tenant = wire.tenant;

        FrameStreambuf sam_buf(fd);
        std::ostream sam_out(&sam_buf);
        // A failed frame write (the client has gone) must stop the
        // request: without badbit exceptions the ostream swallows the
        // throw and every remaining batch is mapped for nobody. With
        // them it reaches the pipeline's writer, whose first-error path
        // closes the reader.
        sam_out.exceptions(std::ios::badbit);
        const auto response = session_->map(request, sam_out);
        sam_out.flush();

        char summary[256];
        std::snprintf(summary, sizeof summary,
                      "reads_in=%zu dropped=%zu records=%zu "
                      "boundary_dropped=%zu cigar_dropped=%zu "
                      "workers=%zu wall_seconds=%.6f",
                      response.reads_in, response.dropped,
                      response.emitted.records,
                      response.emitted.dropped_boundary,
                      response.emitted.dropped_cigar,
                      response.workers_granted, response.wall_seconds);
        write_frame(fd, FrameType::Done, summary, std::strlen(summary));
        handled_.fetch_add(1);
        if (auto* registry = obs::metrics()) {
            registry->counter("serve.requests_ok").add();
        }
    } catch (const std::exception& e) {
        if (auto* registry = obs::metrics()) {
            registry->counter("serve.requests_failed").add();
        }
        // Best effort: the client may already be gone.
        try {
            const std::string what = e.what();
            write_frame(fd, FrameType::Error, what.data(), what.size());
        } catch (...) {
        }
    }
}

} // namespace repute::serve
