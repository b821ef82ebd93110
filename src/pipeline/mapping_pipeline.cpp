#include "pipeline/mapping_pipeline.hpp"

#include <stdexcept>
#include <utility>

namespace repute::pipeline {

namespace {

core::MapResult map_unit(core::Mapper& mapper, const OrderedBatch& unit,
                         std::uint32_t delta) {
    return mapper.map(unit.batch, delta);
}

core::PairedResult map_unit(core::PairedMapper& mapper,
                            const OrderedPairBatch& unit,
                            std::uint32_t delta) {
    return mapper.map_pairs(unit.first, unit.second, delta);
}

/// Renders a unit into `writer`, one string per ordinal: a read's
/// records, or a pair's two. Single-end renders read by read so an
/// in-order batch streams straight through instead of materializing.
void write(RecordReorderWriter& writer, SamEmitter& emitter,
           const OrderedBatch& unit, const core::MapResult& result) {
    for (std::size_t i = 0; i < unit.batch.size(); ++i) {
        writer.add(unit.ordinals[i],
                   emitter.render_read(unit.batch, i, result));
    }
}

void write(RecordReorderWriter& writer, SamEmitter& emitter,
           const OrderedPairBatch& unit, const core::PairedResult& result) {
    auto rendered = emitter.render_paired(unit.first, unit.second, result);
    for (std::size_t i = 0; i < rendered.size(); ++i) {
        writer.add(unit.ordinals[i], std::move(rendered[i]));
    }
}

template <typename Unit, typename Reader, typename Mapper>
PipelineStats run(Reader& reader, std::span<Mapper* const> mappers,
                  std::uint32_t delta, SamEmitter& emitter,
                  std::ostream& out, PipelineConfig config) {
    if (mappers.empty()) {
        throw std::invalid_argument("run_pipeline: no mappers");
    }
    using Result = decltype(map_unit(*mappers[0], Unit{}, delta));
    config.map_workers = mappers.size();
    RecordReorderWriter writer(out);
    std::uint64_t staged = 0;
    std::uint64_t drained = 0;
    BatchPipeline<Unit, Result> engine(config);
    PipelineStats stats = engine.run(
        [&](Unit& unit) { return reader.next_bucket(unit); },
        [&](const Unit& unit, std::size_t worker) {
            return map_unit(*mappers[worker], unit, delta);
        },
        [&](const Unit& unit, const Result& result) {
            // Sinks run serialized in the writer thread, so plain
            // accumulation is safe; the reorder writer restores input
            // order across buckets that complete out of order.
            staged += result.bytes_staged();
            drained += result.bytes_drained();
            write(writer, emitter, unit, result);
        });
    writer.finish();
    stats.max_reorder_parked = writer.max_parked();
    stats.bytes_staged = staged;
    stats.bytes_drained = drained;
    return stats;
}

} // namespace

PipelineStats run_pipeline(StreamingFastxReader& reader,
                           std::span<core::Mapper* const> mappers,
                           std::uint32_t delta, SamEmitter& emitter,
                           std::ostream& out, PipelineConfig config) {
    return run<OrderedBatch>(reader, mappers, delta, emitter, out, config);
}

PipelineStats run_pipeline(PairedStreamingReader& reader,
                           std::span<core::PairedMapper* const> mappers,
                           std::uint32_t delta, SamEmitter& emitter,
                           std::ostream& out, PipelineConfig config) {
    return run<OrderedPairBatch>(reader, mappers, delta, emitter, out,
                                 config);
}

} // namespace repute::pipeline
