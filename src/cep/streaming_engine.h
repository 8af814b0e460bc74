// Copyright 2026 The PLDP Authors.
//
// Online CEP engine: the production-style counterpart to the window-batch
// evaluation path. It subscribes to a stream replay (stream/replay.h) and
// feeds each event to the incremental matchers of the queries whose
// pattern references its type, emitting detections the moment they
// complete — no window materialization.
//
// Dispatch goes through an event-type index (the classic CEP filter
// index, as in SASE): AddQuery appends the query to the list of each
// distinct element type, and OnEvent walks only the list of the event's
// type, in ascending query order — the same callback order as
// offering the event to every matcher, because a matcher ignores types
// outside its pattern (the IncrementalMatcher type contract, matcher.h).
// An event whose type no query references costs one table lookup.
//
// The window-batch engine (engine.h) is what the paper's evaluation uses
// (per-window binary answers); this engine exists because a deployed
// trusted CEP middleware ingests events online. A property test
// (tests/streaming_engine_test.cc) pins the equivalence of the two paths
// on tumbling windows.
//
// DEPRECATED as a user-facing facade: new serving code should declare its
// queries through `PipelineBuilder` (api/pipeline_builder.h) — a 1-shard
// budget plans exactly this engine, with typed handles and the Finish()
// result gate. This class remains the planner's sequential execution
// target and the per-shard engine of the runtime.

#ifndef PLDP_CEP_STREAMING_ENGINE_H_
#define PLDP_CEP_STREAMING_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cep/matcher.h"
#include "cep/pattern.h"
#include "common/status.h"
#include "stream/replay.h"

namespace pldp {

/// A detection emitted by the streaming engine.
struct StreamingDetection {
  /// Which registered query fired.
  size_t query_index = 0;
  /// When the completing event arrived.
  Timestamp at = 0;
};

/// Callback invoked on every detection (optional).
using DetectionCallback = std::function<void(const StreamingDetection&)>;

/// Event-at-a-time CEP engine.
class StreamingCepEngine : public StreamSubscriber {
 public:
  StreamingCepEngine() = default;

  /// Registers a continuous query: detect `pattern` with all elements within
  /// `window` time units (<= 0: unbounded). Returns the query index.
  /// InvalidArgument for an empty pattern or an element type id of 2^20
  /// or more.
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window);

  /// Registers a detection callback (called synchronously from OnEvent).
  void SetCallback(DetectionCallback callback) {
    callback_ = std::move(callback);
  }

  size_t query_count() const { return matchers_.size(); }

  /// Detections of one query so far (timestamps of completion).
  StatusOr<std::vector<Timestamp>> DetectionsOf(size_t query_index) const;

  /// Total number of detections across queries.
  size_t total_detections() const { return total_detections_; }

  /// Number of events ingested.
  size_t events_processed() const { return events_processed_; }

  /// Clears all matcher state and counters (queries stay registered).
  void ResetState();

  // StreamSubscriber:
  Status OnEvent(const Event& event) override;

 private:
  /// Type ids are dense registry ids; one far beyond any registry (e.g.
  /// kInvalidEventType) would size the index table absurdly, so AddQuery
  /// refuses it.
  static constexpr EventTypeId kMaxIndexedType = EventTypeId{1} << 20;

  std::vector<std::unique_ptr<IncrementalMatcher>> matchers_;
  /// Event-type index: by_type_[t] lists, ascending, the queries whose
  /// pattern names type t; the table is as long as the largest
  /// referenced id.
  std::vector<std::vector<uint32_t>> by_type_;
  DetectionCallback callback_;
  size_t total_detections_ = 0;
  size_t events_processed_ = 0;
};

}  // namespace pldp

#endif  // PLDP_CEP_STREAMING_ENGINE_H_
