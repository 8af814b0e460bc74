// Copyright 2026 The PLDP Authors.
//
// Instrument bundles the runtime stages accept at wiring time. Every field
// is a nullable pointer into a `MetricsRegistry`; a stage guards each
// update with a null check, so an un-instrumented pipeline pays one
// predictable branch per site and nothing else. Bundles are plain structs
// copied by value — the registry owns the instruments, the stages only
// borrow them, and all wiring happens before `Start()` (no hot-path
// publication races).

#ifndef PLDP_OBS_INSTRUMENTS_H_
#define PLDP_OBS_INSTRUMENTS_H_

#include "obs/metrics.h"

namespace pldp {
namespace obs {

/// Per-shard data-plane instruments (runtime/shard.h).
struct ShardInstruments {
  Counter* events = nullptr;              ///< events popped & processed
  Counter* backpressure_waits = nullptr;  ///< producer-side full-queue spins
  Histogram* batch_size = nullptr;        ///< events per pop burst
  Histogram* process_latency_ns = nullptr;  ///< per-event engine latency
  Gauge* queue_depth = nullptr;           ///< snapshot-time ApproxSize
  Counter* parks = nullptr;               ///< idle worker cv parks
  Counter* wakes = nullptr;               ///< doorbell slow-path notifies
};

/// Per-emitter exchange-lane instruments (runtime/exchange.h). One bundle
/// per (group, producer shard) emitter row.
struct ExchangeInstruments {
  Counter* forwarded = nullptr;           ///< events pushed into lanes
  Counter* watermarks = nullptr;          ///< frontier advances
  Counter* backpressure_waits = nullptr;  ///< full-lane spins on emit
};

/// Per-merge-shard instruments (runtime/merge_shard.h).
struct MergeInstruments {
  Counter* events_received = nullptr;  ///< became readable on the lanes
  Counter* events_merged = nullptr;    ///< released to the engine in order
  Histogram* merge_latency_ns = nullptr;  ///< per-released-event latency
  Counter* parks = nullptr;        ///< idle worker cv parks
  Counter* wakes = nullptr;        ///< doorbell slow-path notifies
};

/// Private-lane publisher instruments (ppm/subject_publisher.h).
struct PublisherInstruments {
  Counter* windows = nullptr;   ///< private windows finalized
  Gauge* subjects = nullptr;    ///< distinct subjects with live state
};

}  // namespace obs
}  // namespace pldp

#endif  // PLDP_OBS_INSTRUMENTS_H_
