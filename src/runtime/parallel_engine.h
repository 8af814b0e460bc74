// Copyright 2026 The PLDP Authors.
//
// Sharded parallel streaming CEP engine.
//
// `ParallelStreamingEngine` scales `StreamingCepEngine` across cores: it
// hash-partitions incoming events by subject key (runtime/router.h) onto N
// worker shards (runtime/shard.h), each owning a private engine with the
// same registered queries, connected by bounded lock-free SPSC queues with
// backpressure. It implements `StreamSubscriber`, so it drops into the
// existing `StreamReplayer` wherever a `StreamingCepEngine` did.
//
// Subject partitioning makes per-subject patterns exact, but a pattern that
// correlates *across* subjects sees only fragments on any one shard. For
// those, the engine grows a second stage: a repartition/exchange
// (runtime/exchange.h) re-keys stage-1 output by a correlation key
// (cep/correlation_key.h) over an N1×N2 matrix of SPSC lanes, and stage-2
// merge shards (runtime/merge_shard.h) restore global order with a
// watermark-gated k-way merge before matching the cross-subject queries.
// Each distinct correlation key gets one exchange lane-group (own fabric +
// merge shards, see AddCrossQuery); stage-1 workers fan their output
// through every group's emitter. What a worker forwards follows from the
// topology: a shard without a sink forwards every raw event, a shard with
// a sink (the private lane's publisher) forwards only what the sink emits,
// so raw events never cross a private lane's exchange.
//
// NOTE: prefer the declarative `PipelineBuilder` (api/pipeline_builder.h)
// over constructing this engine directly — the builder plans the minimal
// topology from the registered queries and returns typed query handles
// whose result accessors encode the drain contract. This class remains the
// planner's sharded/exchange execution target.
//
//     caller / StreamReplayer
//            │ OnEvent / OnEventBatch (stamped with ingest seq,
//            ▼                         staged per shard, bulk-pushed)
//       EventRouter ── hash(subject) % N1 ─► SpscQueue ─► Shard 0 ┐
//                                            SpscQueue ─► Shard 1 │ stage 1
//                                            ...                  ┘
//                 per-shard StreamingCepEngine (+ optional sink)
//                          │ ExchangeEmitter: re-key by correlation key
//                          ▼
//              N1×N2 exchange lanes (SPSC each, frontier per row)
//                          │
//                          ▼ k-way merge by ingest seq
//                    MergeShard 0..N2-1                    stage 2
//              cross-subject StreamingCepEngine each
//            │
//            ▼
//     Drain barrier (two-phase: stage-1 drain + frontier flush,
//     then stage-2 safe-bound wait) → merged detections / stats
//
// Semantics: stage-1 detection is *partition-local by subject* — exact
// whenever matches are subject-local, the paper's setting (Fig. 2).
// Stage-2 detection is *partition-local by correlation key*: exact whenever
// all events of a potential match share the key (trivially true for the
// global key, which sends everything to one stage-2 shard). Because the
// merge releases events in exact ingest order, stage-2 detections equal a
// sequential engine's bit-for-bit, not just as a multiset.

#ifndef PLDP_RUNTIME_PARALLEL_ENGINE_H_
#define PLDP_RUNTIME_PARALLEL_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cep/streaming_engine.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "quality/metrics.h"
#include "runtime/admission.h"
#include "runtime/exchange.h"
#include "runtime/merge_shard.h"
#include "runtime/overload.h"
#include "runtime/router.h"
#include "runtime/shard.h"
#include "stream/replay.h"

namespace pldp {

/// Sizing of the exchange lane-groups that AddCrossQuery creates.
struct RuntimeExchangeOptions {
  /// Stage-2 merge shards per lane-group. 0 = as many as stage-1 shards.
  size_t shard_count = 0;
  /// Capacity of each exchange lane (rounded up to a power of two).
  size_t lane_capacity = 1024;
  /// Per-lane flow-control credit budget: a hard bound on how many events
  /// one producer may have buffered in one merge shard's reorder buffer
  /// (runtime/exchange.h). 0 = kDefaultExchangeReorderCapacity. A merge
  /// shard's total reorder memory is bounded by N1 × this value.
  size_t reorder_capacity = 0;
};

/// Construction-time knobs of the runtime.
struct ParallelEngineOptions {
  /// Worker shards. 0 = one per available hardware thread.
  size_t shard_count = 0;
  /// Per-shard queue capacity (rounded up to a power of two). Bounds
  /// memory and converts overload into router-side backpressure.
  size_t queue_capacity = 1024;
  /// Optional per-shard event sink factory, called once per shard at
  /// construction. The sink runs on the shard's worker thread (see
  /// Shard::SetEventSink) — this is how shard-local PLDP perturbation
  /// attaches (core/parallel_private_engine.h). With a sink, only what the
  /// sink emits crosses the exchange; raw events never do.
  std::function<std::unique_ptr<ShardEventSink>(size_t shard_index)>
      sink_factory;
  /// Sizing of the cross-subject exchange stage.
  RuntimeExchangeOptions exchange;
  /// What ingestion does when a shard queue is full (runtime/overload.h).
  /// The default (kBlock) keeps the historic lossless backpressure path
  /// with zero added overhead; the shedding policies interpose an
  /// AdmissionQueue in front of the shard queues.
  OverloadOptions overload;
  /// Pin worker threads to cores at Start (round-robin: stage-1 shards
  /// first, then stage-2 merge shards). No-op on platforms without
  /// affinity support — pinning is a hint, never a correctness knob.
  bool pin_threads = false;
  /// Cap on distinct cores used when pinning (0 = all available).
  size_t affinity_cores = 0;
};

/// Multi-threaded drop-in for StreamingCepEngine (see file comment for the
/// exact semantics). Lifecycle: AddQuery/AddCrossQuery → Start →
/// OnEvent*/OnEventBatch* → Drain/Finish/Stop → read detections/stats.
/// DetectionsOf and stats are only stable after that barrier; OnEnd (from
/// StreamReplayer) drains, so results are consistent right after
/// StreamReplayer::Run returns.
class ParallelStreamingEngine : public StreamSubscriber {
 public:
  explicit ParallelStreamingEngine(ParallelEngineOptions options = {});
  ~ParallelStreamingEngine() override;

  ParallelStreamingEngine(const ParallelStreamingEngine&) = delete;
  ParallelStreamingEngine& operator=(const ParallelStreamingEngine&) = delete;

  size_t shard_count() const { return shards_.size(); }

  /// Registers a continuous query on every stage-1 shard (same index
  /// everywhere). Must precede Start(). Returns the query index.
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window);

  /// Registers a cross-subject query on the exchange lane-group selected
  /// by `key_id`: queries sharing a key_id share one fabric + merge-shard
  /// set (the caller guarantees equal key_id implies equal key_fn), and
  /// distinct key_ids get independent lane matrices — this is how one
  /// pipeline runs several cross queries each under its own correlation
  /// key. A group is created on first use, sized by options.exchange.
  /// Must precede Start(). Returns the cross query index, in an index
  /// space separate from AddQuery's.
  StatusOr<size_t> AddCrossQuery(Pattern pattern, Timestamp window,
                                 const std::string& key_id,
                                 ShardKeyFn key_fn);

  size_t query_count() const { return query_count_; }
  size_t cross_query_count() const { return cross_index_.size(); }

  /// Registers this engine's instruments in `registry` and wires them into
  /// every stage (shards, exchange emitters, merge shards). `lane` labels
  /// every metric ("plain" for the raw runtime, "private" for the PLDP
  /// lane) so two runtimes can share one registry. Call after all queries
  /// and lane-groups are registered and before Start(); at most once.
  /// `registry` must outlive the engine.
  Status EnableMetrics(obs::MetricsRegistry* registry,
                       const std::string& lane = "plain");

  /// Refreshes the snapshot-time gauges (queue depths, lane depths,
  /// reorder occupancy, watermark lag) from the live atomics. Safe from
  /// any thread; no-op when metrics are off.
  void RefreshMetricGauges();

  /// Per-query detection callback (stage-1 index space), invoked on the
  /// worker thread that matched — so implementations must be thread-safe
  /// across shards. Must precede Start().
  Status SetQueryCallback(size_t query_index,
                          std::function<void(Timestamp)> callback);

  /// Per-cross-query detection callback (global cross index space),
  /// invoked on the matching merge-shard worker. Must precede Start().
  Status SetCrossQueryCallback(size_t cross_query_index,
                               std::function<void(Timestamp)> callback);

  /// Appends this engine's health rows (per-shard queue saturation,
  /// per-group merge lag/occupancy) to `health`. Safe while running.
  void CollectHealth(obs::PipelineHealth* health,
                     const std::string& lane) const;

  /// Launches all workers (stage-2 consumers first, then stage-1).
  Status Start();

  /// Waits until every ingested event has been fully processed — through
  /// both stages when the exchange is on (stage-1 drain, watermark flush,
  /// stage-2 safe-bound wait). Workers stay alive; ingestion may continue.
  Status Drain();

  /// Terminal end-of-stream: drains, runs every sink's OnShardFinish on
  /// its worker (emitting finalize-time output through the exchange), and
  /// seals the exchange with the terminal frontier. Further ingestion is
  /// refused; workers stay alive for result reads. One-shot: the first
  /// call's outcome (success or error) latches and later calls re-return
  /// it.
  Status Finish();

  /// Drains and joins all workers. Idempotent; called by the destructor.
  Status Stop();

  // StreamSubscriber — the ingest path (single producer thread).
  Status OnEvent(const Event& event) override;

  /// Bulk ingest: partitions the span into per-shard staging buffers and
  /// bulk-pushes each (one queue release store per shard burst instead of
  /// one per event). Equivalent to calling OnEvent on each event, several
  /// times cheaper on the router thread.
  Status OnEventBatch(EventSpan events) override;

  /// Drains, so DetectionsOf/stats are consistent the moment
  /// StreamReplayer::Run returns — without this, results read right after
  /// Run() could silently miss events still queued on the shards.
  Status OnEnd() override { return Drain(); }

  // Results. Valid after Drain() or Stop() (and before further OnEvent).

  /// Merged detections of one stage-1 query across shards, sorted by
  /// timestamp (a canonical multiset representation).
  StatusOr<std::vector<Timestamp>> DetectionsOf(size_t query_index) const;

  /// Merged detections of one cross-subject query across merge shards,
  /// sorted by timestamp.
  StatusOr<std::vector<Timestamp>> CrossDetectionsOf(
      size_t cross_query_index) const;

  /// Total stage-1 detections across queries and shards.
  size_t total_detections() const;

  /// Total stage-2 detections across cross queries and merge shards.
  size_t total_cross_detections() const;

  /// Events ingested (== sum of per-shard events_processed after Drain).
  // order: relaxed; telemetry read, exact after external quiescence.
  size_t events_processed() const {
    return events_ingested_.load(std::memory_order_relaxed);
  }

  /// Events deliberately dropped by the overload policy (0 under kBlock).
  /// Safe from any thread.
  uint64_t events_shed() const {
    return admission_ ? admission_->shed_total() : 0;
  }

  /// Admitted/shed roll-up for quality accounting (quality/metrics.h).
  /// RecallLowerBound() == 1.0 certifies a lossless run: detections are
  /// bit-identical to the blocking policy's. Safe from any thread.
  SheddingStats shedding_stats() const {
    SheddingStats s;
    // order: relaxed; telemetry read (see events_processed).
    s.admitted = events_ingested_.load(std::memory_order_relaxed);
    s.shed = events_shed();
    return s;
  }

  /// Per-shard stage-1 counters, indexed by shard.
  std::vector<ShardStats> ShardStatsSnapshot() const;

  /// Per-shard stage-2 counters (events_processed = events released by the
  /// merge). Empty without the exchange.
  std::vector<ShardStats> CrossShardStatsSnapshot() const;

 private:
  /// One exchange lane-group: a correlation key's fabric plus the merge
  /// shards consuming it. The fabric is declared before the merge shards so
  /// it is destroyed after them (their threads touch the lanes).
  struct ExchangeGroup {
    /// Dedupe token of the group's correlation key.
    std::string key_id;
    std::unique_ptr<ExchangeFabric> fabric;
    std::vector<std::unique_ptr<MergeShard>> merge_shards;
    /// Cross queries registered on this group (local index space).
    size_t query_count = 0;
  };

  /// Creates a lane-group for `key_fn` (or finds the existing one with
  /// this key_id) and wires one emitter per stage-1 shard. Returns the
  /// group's index into groups_ (stable across later growth, unlike a
  /// pointer).
  StatusOr<size_t> GetOrCreateGroup(const std::string& key_id,
                                    ShardKeyFn key_fn);
  /// Stage-2 merge shards across all exchange lane-groups.
  size_t cross_shard_count() const;

  EventRouter router_;
  /// Sizing applied to every lane-group AddCrossQuery creates.
  RuntimeExchangeOptions exchange_options_;
  /// Overload policy (kBlock = admission_ stays null, historic path).
  OverloadOptions overload_options_;
  /// Core-pinning knobs, applied at Start() once the topology is frozen
  /// (lane-groups may be created between construction and Start).
  bool pin_threads_ = false;
  size_t affinity_cores_ = 0;
  /// Exchange lane-groups. Declared before the stage-1 shards so the
  /// fabrics are destroyed after every thread that touches their lanes.
  std::vector<ExchangeGroup> groups_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Non-null only under a shedding policy; sits between the router and
  /// the shard queues on the ingest thread. Declared after shards_ (it
  /// borrows them).
  std::unique_ptr<AdmissionQueue> admission_;
  /// Ingest confinement: the StreamSubscriber contract (one thread drives
  /// OnEvent/OnEventBatch/OnEnd), asserted at those entry points, ties the
  /// staging buffers to that thread.
  ThreadRole ingest_role_;
  /// Per-shard staging buffers reused across OnEventBatch calls.
  std::vector<std::vector<StampedEvent>> staging_
      PLDP_GUARDED_BY(ingest_role_);
  size_t query_count_ = 0;
  /// Global cross-query index -> (lane-group, group-local index).
  std::vector<std::pair<size_t, size_t>> cross_index_;
  /// Ingest sequence numbers handed out (single ingest thread increments;
  /// drain barriers read from any thread).
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> events_ingested_{0};
  // Written only by Start/Stop (single orchestrating thread); atomic so
  // Drain from another thread reads it race-free.
  std::atomic<bool> running_{false};
  std::atomic<bool> finished_{false};
  /// Latched first Finish() outcome (orchestrator thread only).
  Status finish_status_ = Status::OK();

  // Telemetry (EnableMetrics). The registry owns the instruments; the
  // engine keeps only the snapshot-time gauges it refreshes itself.
  // Invariant used below: shard emitter index g == groups_[g] (every group
  // adds exactly one emitter to every shard, in group-creation order).
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string metrics_lane_;
  std::vector<obs::Gauge*> shard_queue_gauges_;
  std::vector<std::vector<obs::Gauge*>> lane_depth_gauges_;    // [grp][prod]
  std::vector<std::vector<obs::Gauge*>> merge_reorder_gauges_;  // [grp][cons]
  std::vector<std::vector<obs::Gauge*>> merge_lag_gauges_;      // [grp][cons]
  std::vector<std::vector<obs::Gauge*>> merge_capacity_gauges_;  // [grp][cons]

  // Per-query user detection callbacks (set before Start; dispatched on
  // worker threads via one dispatcher per shard / merge shard).
  std::vector<std::function<void(Timestamp)>> query_callbacks_;
  std::vector<std::function<void(Timestamp)>> cross_query_callbacks_;

  Status FinishInternal();
  void PublishProducerFloor(uint64_t floor);
  void InstallCallbackDispatchers();
  /// Snapshot of the ingest frontier: every stamped sequence number is
  /// strictly below it. Safe from any thread (best-effort while the ingest
  /// thread races, exact once it is quiescent — same as Drain).
  uint64_t IngestFrontier() const;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_PARALLEL_ENGINE_H_
