#pragma once
// The streaming mapping entry point: length-class buckets from a reader
// stream through the BatchPipeline onto worker-owned mappers, render
// through a SamEmitter in the writer thread, and reach the output in
// input order through one RecordReorderWriter keyed on the readers'
// dense record ordinals. Single-end and paired input share one template
// body; MappingSession::map, the pipeline_throughput bench and the
// streaming tests call it.

#include <iosfwd>
#include <span>

#include "core/mapping.hpp"
#include "core/paired.hpp"
#include "pipeline/batch_pipeline.hpp"
#include "pipeline/sam_emitter.hpp"
#include "pipeline/streaming_fastx.hpp"

namespace repute::pipeline {

/// Streams `reader` through `mappers` (one map worker per mapper; each
/// worker calls only its own mapper, so mappers need not be shareable)
/// at edit budget `delta`, writing SAM records to `out` in input order.
/// Each bucket is internally uniform (read_length = class ceiling), so
/// any fixed-scratch Mapper maps it exactly like a uniform batch. The
/// caller writes the header; returns the stage accounting, including
/// the reorder writer's peak and the units' transfer bytes.
PipelineStats run_pipeline(StreamingFastxReader& reader,
                           std::span<core::Mapper* const> mappers,
                           std::uint32_t delta, SamEmitter& emitter,
                           std::ostream& out, PipelineConfig config = {});

/// Paired variant over a lockstep PairedStreamingReader (desync
/// detection lives in the reader); two SAM records per pair.
PipelineStats run_pipeline(PairedStreamingReader& reader,
                           std::span<core::PairedMapper* const> mappers,
                           std::uint32_t delta, SamEmitter& emitter,
                           std::ostream& out, PipelineConfig config = {});

} // namespace repute::pipeline
