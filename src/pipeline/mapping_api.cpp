#include "pipeline/mapping_api.hpp"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "genomics/fastx.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace repute::pipeline {

namespace {

/// Releases the granted mappers on every exit path of map().
class PoolGrant {
public:
    PoolGrant(MappingSession& session,
              std::vector<core::Mapper*> granted,
              void (MappingSession::*release)(
                  const std::vector<core::Mapper*>&))
        : session_(session), release_(release),
          granted_(std::move(granted)) {}
    ~PoolGrant() { (session_.*release_)(granted_); }
    PoolGrant(const PoolGrant&) = delete;
    PoolGrant& operator=(const PoolGrant&) = delete;

    const std::vector<core::Mapper*>& mappers() const noexcept {
        return granted_;
    }

private:
    MappingSession& session_;
    void (MappingSession::*release_)(const std::vector<core::Mapper*>&);
    std::vector<core::Mapper*> granted_;
};

ocl::Platform make_platform(const std::string& name) {
    if (name == "system1") return ocl::Platform::system1();
    if (name == "system2") return ocl::Platform::system2();
    throw std::invalid_argument(
        "MappingSession: platform must be 'system1' or 'system2', got: " +
        name);
}

} // namespace

std::unique_ptr<MappingSession> MappingSession::from_fasta(
    const std::string& fasta_path, SessionConfig config) {
    const auto records = genomics::read_fasta_file(fasta_path);
    if (records.empty()) {
        throw std::runtime_error("MappingSession: no sequences in " +
                                 fasta_path);
    }
    return from_multi(genomics::MultiReference(records),
                      std::move(config));
}

std::unique_ptr<MappingSession> MappingSession::from_multi(
    genomics::MultiReference multi, SessionConfig config) {
    std::unique_ptr<MappingSession> session(new MappingSession());
    session->config_ = std::move(config);
    session->owned_multi_.emplace(std::move(multi));
    session->multi_ = &*session->owned_multi_;
    const util::Stopwatch timer;
    session->owned_fm_.emplace(
        session->multi_->concatenated(), session->config_.sa_sample,
        session->config_.checkpoint_every, session->config_.qgram_length);
    session->index_seconds_ = timer.seconds();
    session->fm_ = &*session->owned_fm_;
    session->build_pool();
    return session;
}

std::unique_ptr<MappingSession> MappingSession::from_rix(
    const std::string& rix_path, SessionConfig config) {
    std::unique_ptr<MappingSession> session(new MappingSession());
    session->config_ = std::move(config);
    const util::Stopwatch timer;
    if (index::is_rixm_manifest(rix_path)) {
        session->sharded_.emplace(index::ShardedIndex::open(rix_path));
        session->index_seconds_ = timer.seconds();
        session->multi_ = &session->sharded_->multi();
    } else {
        session->mapped_.emplace(index::MappedIndex::open(rix_path));
        session->index_seconds_ = timer.seconds();
        session->multi_ = &session->mapped_->multi();
        session->fm_ = &session->mapped_->fm();
    }
    session->build_pool();
    return session;
}

const index::FmIndex& MappingSession::fm() const {
    if (fm_ == nullptr) {
        throw std::logic_error(
            "MappingSession: sharded sessions have no single FM-index");
    }
    return *fm_;
}

void MappingSession::build_pool() {
    platform_.emplace(make_platform(config_.platform));
    std::vector<core::DeviceShare> shares;
    for (const auto& name : config_.devices) {
        shares.push_back({&platform_->device(name), 1.0});
    }
    if (config_.transfer.modeled()) {
        for (const auto& name : config_.devices) {
            platform_->device(name).set_transfer_spec(config_.transfer);
        }
    }
    core::HeterogeneousMapperConfig mapper_config;
    mapper_config.kernel.s_min = config_.s_min;
    mapper_config.kernel.max_locations_per_read = config_.max_locations;
    mapper_config.schedule = config_.schedule;
    mapper_config.scheduler = config_.scheduler;
    mapper_config.double_buffer = config_.double_buffer;

    if (config_.flavor != "repute" && config_.flavor != "coral") {
        throw std::invalid_argument(
            "MappingSession: flavor must be 'repute' or 'coral', got: " +
            config_.flavor);
    }
    // A monolithic index is the one-shard plan.
    const std::vector<core::ShardView> views =
        sharded_ ? core::shard_views_of(*sharded_)
                 : std::vector{core::monolithic_view(multi_->concatenated(),
                                                     *fm_)};
    const auto make = config_.flavor == "repute" ? &core::make_sharded_repute
                                                 : &core::make_sharded_coral;
    const std::size_t pool =
        std::max<std::size_t>(config_.mapper_pool, 1);
    for (std::size_t i = 0; i < pool; ++i) {
        pool_.push_back(make(views, shares, mapper_config));
        free_.push_back(pool_.back().get());
    }
    export_footprint_metrics();
}

std::size_t MappingSession::mapped_bytes() const noexcept {
    if (sharded_) return sharded_->mapped_bytes();
    return mapped_ ? mapped_->mapped_bytes() : 0;
}

std::size_t MappingSession::resident_bytes() const noexcept {
    if (sharded_) return sharded_->resident_bytes();
    if (mapped_) return mapped_->resident_bytes();
    return fm_->memory_bytes() +
           multi_->concatenated().sequence().memory_bytes();
}

void MappingSession::export_footprint_metrics() const {
    if (auto* registry = obs::metrics()) {
        registry->gauge("index.mapped_bytes")
            .set(static_cast<double>(mapped_bytes()));
        registry->gauge("index.resident_bytes")
            .set(static_cast<double>(resident_bytes()));
    }
}

std::vector<core::Mapper*> MappingSession::acquire(std::size_t want) {
    if (want == 0) want = 1;
    std::unique_lock lock(pool_mutex_);
    ++active_requests_;
    pool_cv_.wait(lock, [&] { return !free_.empty(); });
    // Fair share: with R active requests nobody may hold more than
    // pool/R mappers, so late arrivals always find capacity soon.
    const std::size_t fair =
        std::max<std::size_t>(1, pool_.size() / active_requests_);
    const std::size_t take = std::min({want, fair, free_.size()});
    std::vector<core::Mapper*> granted(free_.end() -
                                           static_cast<std::ptrdiff_t>(take),
                                       free_.end());
    free_.resize(free_.size() - take);
    if (auto* registry = obs::metrics()) {
        registry->gauge("session.active_requests")
            .set(static_cast<double>(active_requests_));
        registry->gauge("session.mappers_busy")
            .set(static_cast<double>(pool_.size() - free_.size()));
    }
    return granted;
}

void MappingSession::release(const std::vector<core::Mapper*>& granted) {
    {
        const std::lock_guard lock(pool_mutex_);
        free_.insert(free_.end(), granted.begin(), granted.end());
        --active_requests_;
        if (auto* registry = obs::metrics()) {
            registry->gauge("session.active_requests")
                .set(static_cast<double>(active_requests_));
            registry->gauge("session.mappers_busy")
                .set(static_cast<double>(pool_.size() - free_.size()));
        }
    }
    pool_cv_.notify_all();
}

MapResponse MappingSession::map(const MapRequest& request,
                                std::ostream& sam_out) {
    if (request.reads == nullptr) {
        throw std::invalid_argument(
            "MappingSession: request carries no reads stream");
    }

    const util::Stopwatch wall;
    const PoolGrant grant(*this, acquire(request.map_workers),
                          &MappingSession::release);
    const auto& mappers = grant.mappers();

    MapResponse response;
    response.workers_granted = mappers.size();

    SamEmitterConfig emit_config;
    emit_config.cigar = request.cigar;
    emit_config.delta = request.delta;
    SamEmitter emitter(sam_out, *multi_, emit_config);
    emitter.write_header();

    PipelineConfig pipe_config;
    pipe_config.queue_depth = request.queue_depth;

    if (request.reads2 != nullptr) { // paired-end
        std::vector<std::unique_ptr<core::PairedMapper>> paired_owned;
        std::vector<core::PairedMapper*> paired;
        for (auto* mapper : mappers) {
            paired_owned.push_back(std::make_unique<core::PairedMapper>(
                *mapper, multi_->concatenated(), request.pair));
            paired.push_back(paired_owned.back().get());
        }
        PairedStreamingReader reader(*request.reads, *request.reads2,
                                     request.reader);
        response.pipeline = run_pipeline(reader, paired, request.delta,
                                         emitter, sam_out, pipe_config);
        // Paired reader stats count pairs; the response counts reads.
        response.reads_in =
            2 * (reader.stats().records + reader.stats().dropped());
        response.dropped = 2 * reader.stats().dropped();
    } else { // single-end (length-bucketed)
        StreamingFastxReader reader(*request.reads, request.reader);
        response.pipeline = run_pipeline(reader, mappers, request.delta,
                                         emitter, sam_out, pipe_config);
        response.reads_in =
            reader.stats().records + reader.stats().dropped();
        response.dropped = reader.stats().dropped();
    }
    response.xfer_bytes_staged = response.pipeline.bytes_staged;
    response.xfer_bytes_drained = response.pipeline.bytes_drained;

    response.emitted = emitter.stats();
    response.wall_seconds = wall.seconds();

    if (auto* registry = obs::metrics()) {
        registry->counter("session.requests").add();
        registry->counter("session.reads")
            .add(response.reads_in - response.dropped);
        registry->histogram("session.request_seconds")
            .observe(response.wall_seconds);
        if (!request.tenant.empty()) {
            const std::string prefix = "serve.tenant." + request.tenant;
            registry->counter(prefix + ".requests").add();
            registry->counter(prefix + ".reads")
                .add(response.reads_in - response.dropped);
            registry->histogram(prefix + ".request_seconds")
                .observe(response.wall_seconds);
        }
    }
    return response;
}

} // namespace repute::pipeline
