// The mapping daemon end to end over a real Unix-domain socket:
// concurrent clients against one resident session, single-end and
// paired requests interleaved, per-client output byte-identical to the
// same request mapped one-shot, and a clean drain on stop().

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/mapping_api.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace repute {
namespace {

std::string fastq_text(const genomics::ReadBatch& batch) {
    std::string out;
    for (const auto& read : batch.reads) {
        out += '@' + read.name + '\n' + read.to_string() + "\n+\n";
        out += read.quality.empty() ? std::string(read.length(), 'I')
                                    : read.quality;
        out += '\n';
    }
    return out;
}

/// One shared daemon fixture: a small genome, a 2-mapper session, a
/// server on a TempDir socket, and ground-truth SAM for each request
/// shape produced through the same session one-shot.
class ServeTest : public ::testing::Test {
protected:
    void SetUp() override {
        genomics::GenomeSimConfig gconfig;
        gconfig.length = 30'000;
        gconfig.seed = 17;
        genomics::Reference genome = genomics::simulate_genome(gconfig);

        genomics::ReadSimConfig rconfig;
        rconfig.n_reads = 200;
        rconfig.read_length = 60;
        rconfig.max_errors = 3;
        rconfig.seed = 500;
        single_fastq_ = fastq_text(
            genomics::simulate_reads(genome, rconfig).batch);

        genomics::PairSimConfig pconfig;
        pconfig.n_pairs = 80;
        pconfig.read_length = 60;
        pconfig.max_errors = 2;
        pconfig.insert_mean = 240.0;
        pconfig.insert_stddev = 20.0;
        pconfig.seed = 900;
        const auto pairs = genomics::simulate_pairs(genome, pconfig);
        paired_fastq1_ = fastq_text(pairs.first);
        paired_fastq2_ = fastq_text(pairs.second);

        pipeline::SessionConfig sconfig;
        sconfig.mapper_pool = 2;
        session_ = pipeline::MappingSession::from_multi(
            genomics::MultiReference(std::move(genome)), sconfig);

        start_server(2);
    }

    void TearDown() override { stop_server(); }

    void start_server(std::size_t handlers) {
        // One socket per test process: ctest -j runs every TEST as its
        // own process, and a shared path lets one test's client reach
        // another test's server. Test name + pid keeps it unique and
        // well under the 108-byte sun_path limit.
        serve::ServerConfig server_config;
        server_config.socket_path =
            testing::TempDir() + "repute_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".sock";
        server_config.handlers = handlers;
        server_ = std::make_unique<serve::Server>(*session_,
                                                  server_config);
        server_thread_ = std::thread([this] { served_ = server_->run(); });
    }

    void stop_server() {
        if (server_thread_.joinable()) {
            server_->stop();
            server_thread_.join();
        }
        server_.reset(); // unlinks the socket before a restart binds it
    }

    /// Sends `wire` on a raw connection and hangs up without reading
    /// any of the reply.
    void send_and_hang_up(const serve::WireRequest& wire) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, server_->socket_path().c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
        const std::string payload = serve::encode_request(wire);
        serve::write_frame(fd, serve::FrameType::Request, payload.data(),
                           payload.size());
        ::close(fd);
    }

    serve::WireRequest single_request(const std::string& tenant) const {
        serve::WireRequest request;
        request.delta = 3;
        request.tenant = tenant;
        request.reads = single_fastq_;
        return request;
    }

    serve::WireRequest paired_request(const std::string& tenant) const {
        serve::WireRequest request = single_request(tenant);
        request.reads = paired_fastq1_;
        request.reads2 = paired_fastq2_;
        request.min_insert = 120;
        request.max_insert = 400;
        return request;
    }

    /// The same request mapped one-shot through the session (the wire
    /// decode path is exercised by running it through the server once).
    std::string one_shot(const serve::WireRequest& wire) {
        std::istringstream reads(wire.reads);
        std::istringstream reads2(wire.reads2);
        pipeline::MapRequest request;
        request.reads = &reads;
        request.delta = wire.delta;
        if (!wire.reads2.empty()) {
            request.reads2 = &reads2;
            request.pair.min_insert = wire.min_insert;
            request.pair.max_insert = wire.max_insert;
        }
        std::ostringstream sam;
        session_->map(request, sam);
        return sam.str();
    }

    std::string via_socket(const serve::WireRequest& wire) {
        std::ostringstream sam;
        serve::run_client(server_->socket_path(), wire, sam);
        return sam.str();
    }

    std::unique_ptr<pipeline::MappingSession> session_;
    std::unique_ptr<serve::Server> server_;
    std::thread server_thread_;
    std::size_t served_ = 0;
    std::string single_fastq_, paired_fastq1_, paired_fastq2_;
};

TEST_F(ServeTest, SingleRequestMatchesOneShot) {
    const auto wire = single_request("solo");
    EXPECT_EQ(via_socket(wire), one_shot(wire));
}

TEST_F(ServeTest, ConcurrentClientsEachGetIdenticalOutput) {
    const auto single = single_request("fleet");
    const auto paired = paired_request("fleet");
    const std::string want_single = one_shot(single);
    const std::string want_paired = one_shot(paired);

    // More clients than handlers: the admission queue has to hold the
    // overflow, and interleaved single/paired requests must not bleed
    // into each other's streams.
    constexpr std::size_t kClients = 6;
    std::vector<std::string> got(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            got[i] = via_socket(i % 2 == 0 ? single : paired);
        });
    }
    for (auto& t : clients) t.join();

    for (std::size_t i = 0; i < kClients; ++i) {
        EXPECT_EQ(got[i], i % 2 == 0 ? want_single : want_paired)
            << "client " << i << " diverged";
    }
}

TEST_F(ServeTest, DoneFrameCarriesSummary) {
    std::ostringstream sam;
    const auto result = serve::run_client(server_->socket_path(),
                                          single_request("sum"), sam);
    EXPECT_NE(result.summary.find("reads_in="), std::string::npos);
    EXPECT_NE(result.summary.find("records="), std::string::npos);
}

TEST_F(ServeTest, MalformedRequestGetsErrorFrameAndServerSurvives) {
    serve::WireRequest bad = single_request("bad");
    bad.reads = "@only_name_no_sequence\n";
    bad.fail_on_malformed = 1;
    std::ostringstream sam;
    EXPECT_THROW(serve::run_client(server_->socket_path(), bad, sam),
                 std::runtime_error);

    // The handler must still be alive for the next request.
    const auto wire = single_request("after");
    EXPECT_EQ(via_socket(wire), one_shot(wire));
}

TEST_F(ServeTest, VanishedClientDoesNotKillServer) {
    // The client hangs up right after its request, so the handler's
    // first SAM write hits a closed socket. That must fail the request,
    // not raise SIGPIPE in the daemon.
    const auto wire = single_request("gone");
    send_and_hang_up(wire);
    EXPECT_EQ(via_socket(wire), one_shot(wire));
}

TEST_F(ServeTest, VanishedClientStopsItsRequestMapping) {
    // One handler: a request still mapping for a client that has gone
    // would hold up the next request behind it.
    stop_server();
    start_server(1);

    genomics::ReadSimConfig rconfig;
    rconfig.n_reads = 2'000;
    rconfig.read_length = 60;
    rconfig.max_errors = 3;
    rconfig.seed = 501;
    serve::WireRequest big = single_request("gone");
    big.reads = fastq_text(genomics::simulate_reads(
                               session_->multi().concatenated(), rconfig)
                               .batch);
    big.batch_size = 16; // 125 batches; the first SAM chunk fills early
    serve::WireRequest one = single_request("next");
    one.reads = single_fastq_.substr(0, single_fastq_.find("\n@") + 1);
    const std::string want_one = one_shot(one);

    obs::TraceSession metrics;
    send_and_hang_up(big);
    // Served by the same handler once the vanished request is over.
    EXPECT_EQ(via_socket(one), want_one);

    auto& registry = metrics.registry();
    EXPECT_EQ(registry.counter("serve.requests_failed").value(), 1u);
    EXPECT_EQ(registry.counter("serve.requests_ok").value(), 1u);
    // Every read the kernel maps is one histogram sample; one of them
    // is the one-read request's.
    const std::uint64_t mapped =
        registry.histogram("kernel.candidates_per_read").snapshot().count;
    ASSERT_GE(mapped, 1u);
    EXPECT_LT(mapped - 1, rconfig.n_reads)
        << "the vanished client's request was mapped to the end";
}

TEST_F(ServeTest, RequestIsCountedBeforeItsDoneFrame) {
    serve::WireRequest one = single_request("counted");
    one.reads = single_fastq_.substr(0, single_fastq_.find("\n@") + 1);
    obs::TraceSession metrics;
    std::ostringstream sam;
    serve::run_client(server_->socket_path(), one, sam);
    // The server is still running: the reply alone must imply the count.
    auto& registry = metrics.registry();
    EXPECT_EQ(registry.counter("serve.requests_ok").value(), 1u);
    EXPECT_EQ(registry.counter("serve.requests_failed").value(), 0u);
}

TEST_F(ServeTest, StopDrainsAndReportsServedCount) {
    const auto wire = single_request("drain");
    via_socket(wire);
    via_socket(wire);
    server_->stop();
    server_thread_.join();
    EXPECT_EQ(served_, 2u);
}

TEST(WireRequest, DefaultPayloadRoundTrips) {
    serve::WireRequest request;
    request.delta = 4;
    request.tenant = "t";
    request.reads = "@r\nACGT\n+\nIIII\n";
    request.reads2 = "@r\nTGCA\n+\nIIII\n";
    request.length_grid = 8;
    const auto decoded =
        serve::decode_request(serve::encode_request(request));
    EXPECT_EQ(decoded.delta, 4u);
    EXPECT_EQ(decoded.tenant, "t");
    EXPECT_EQ(decoded.reads, request.reads);
    EXPECT_EQ(decoded.reads2, request.reads2);
    EXPECT_EQ(decoded.length_grid, 8u);
}

TEST(WireRequest, RetiredReadLengthSlotIsRejected) {
    // The u32 after queue_depth once pinned a fixed read length. A
    // payload that still sets it must be refused by name, not mapped
    // as if it were absent.
    std::string payload = serve::encode_request(serve::WireRequest{});
    // delta u32, cigar u8, fail_on_malformed u8, map_workers,
    // batch_size and queue_depth u32, then the slot.
    constexpr std::size_t kSlot = 4 + 1 + 1 + 4 + 4 + 4;
    ASSERT_EQ(payload.substr(kSlot, 4), std::string(4, '\0'));
    const std::uint32_t sixty = 60;
    std::memcpy(payload.data() + kSlot, &sixty, sizeof(sixty));
    try {
        (void)serve::decode_request(payload);
        FAIL() << "a non-zero read_length slot must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("read_length"),
                  std::string::npos);
    }
}

} // namespace
} // namespace repute
