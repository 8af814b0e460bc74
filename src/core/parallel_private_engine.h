// Copyright 2026 The PLDP Authors.
//
// Sharded end-to-end service phase: the paper's trusted middleware (Fig. 2)
// scaled across cores with shard-local PLDP perturbation.
//
// `ParallelPrivateEngine` mirrors `PrivateCepEngine`'s setup phase (private
// patterns, target queries, α, history, a pattern-level budget ε), then
// runs the service phase on the sharded runtime: events are routed by
// subject onto N shards, and each shard worker feeds its substream into a
// `SubjectViewPublisher` that windows every subject's stream, publishes
// protected views through a per-subject clone of the shard's Initialized
// mechanism prototype, and answers every registered query from the
// views — raw events never leave the middleware. After `Finish()` (or
// `OnEnd` from a `StreamReplayer`), the per-shard protected answers are
// merged by subject.
//
// Cross-subject target queries ride the repartition/exchange stage
// (runtime/exchange.h): each published protected view is flattened into
// presence events (one per present type, stamped with the subject and the
// window start) and re-keyed over the exchange onto stage-2 merge shards,
// which run the cross-subject queries over the *protected* event stream —
// so even cross-subject correlation only ever sees post-perturbation data.
//
//     caller / StreamReplayer
//        │ OnEvent / OnEventBatch
//        ▼
//     ParallelStreamingEngine ── subject hash ──► Shard worker
//                                                   │ ShardEventSink
//                                                   ▼
//                                         SubjectViewPublisher
//                                     (per-subject tumbling windows,
//                                      per-subject mechanism clone + Rng,
//                                      protected answers)
//                                                   │ protected views
//                                                   ▼
//                                    exchange lanes ─► MergeShards
//                                    (cross-subject queries on views)
//        merged per-subject answers  ◄──── Finish(): Drain + worker-side
//        + cross-subject detections        Finalize + exchange seal
//
// Determinism: per-subject Rngs derive from (seed, subject id) — see
// SubjectSeed — so results are bit-identical across shard counts and equal
// to a sequential `PrivateCepEngine::ProcessStream` over each subject's
// substream with the same per-subject seed (pinned by
// tests/core_parallel_private_test.cc). Cross-subject detections are
// likewise shard-count-invariant: view events carry exchange merge keys
// that reproduce the sequential publication order exactly (pinned by
// tests/core_parallel_private_cross_test.cc).
//
// DEPRECATED as a user-facing facade: declare private patterns/queries on
// a `PipelineBuilder` (api/pipeline_builder.h) and let the planner build
// this engine — typed handles replace the name-keyed registrations and
// the Finish()-before-reads contract is enforced by the result types.
// This class remains the planner's private-lane execution target.

#ifndef PLDP_CORE_PARALLEL_PRIVATE_ENGINE_H_
#define PLDP_CORE_PARALLEL_PRIVATE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "core/private_engine.h"
#include "dp/ledger.h"
#include "ppm/subject_publisher.h"
#include "runtime/parallel_engine.h"

namespace pldp {

/// Knobs of the sharded private service phase.
struct ParallelPrivateOptions {
  /// Worker shards. 0 = one per available hardware thread.
  size_t shard_count = 0;
  /// Per-shard queue capacity (see ParallelEngineOptions).
  size_t queue_capacity = 1024;
  /// Base seed: per-subject mechanism Rngs derive from it
  /// deterministically (see SubjectSeed).
  uint64_t seed = 0x9d11a7eULL;
  /// Tumbling evaluation window applied to every subject's stream. Must be
  /// > 0 at Activate.
  Timestamp window_size = 0;
  Timestamp window_origin = 0;
  /// Exchange sizing for cross-subject target queries; the stage exists
  /// only when a cross query is registered. Only protected views cross it:
  /// every shard carries a publisher sink, and a shard with a sink never
  /// forwards raw events.
  RuntimeExchangeOptions exchange;
  /// Ingest overload policy (runtime/overload.h). Shedding drops raw
  /// events BEFORE perturbation — dropped events consume no privacy
  /// budget, but the affected subjects' windows are computed on a thinned
  /// substream.
  OverloadOptions overload;
};

/// Sharded drop-in for the PrivateCepEngine service phase. Lifecycle:
/// registrations → Activate(factory, ε) → OnEvent*/OnEventBatch* →
/// Finish()/OnEnd → read per-subject results → Stop().
class ParallelPrivateEngine : public StreamSubscriber {
 public:
  explicit ParallelPrivateEngine(ParallelPrivateOptions options);
  ~ParallelPrivateEngine() override;

  ParallelPrivateEngine(const ParallelPrivateEngine&) = delete;
  ParallelPrivateEngine& operator=(const ParallelPrivateEngine&) = delete;

  // --- Setup phase (delegates to an embedded PrivateCepEngine) ------------

  EventTypeId InternEventType(const std::string& name) {
    return setup_.InternEventType(name);
  }
  const EventTypeRegistry& event_types() const { return setup_.event_types(); }
  const std::vector<BinaryQuery>& queries() const { return setup_.queries(); }

  StatusOr<PatternId> RegisterPrivatePattern(Pattern pattern);
  StatusOr<QueryId> RegisterTargetQuery(const std::string& query_name,
                                        Pattern pattern);

  /// Registers a cross-subject target query: `pattern` is matched over the
  /// exchanged protected-view stream (presence events across all subjects)
  /// with all elements within `window` time units. Returns the cross-query
  /// index (its own index space). Must precede Activate.
  StatusOr<size_t> RegisterCrossTargetQuery(const std::string& query_name,
                                            Pattern pattern,
                                            Timestamp window);

  void SetAlpha(double alpha) { setup_.SetAlpha(alpha); }
  void SetHistory(std::vector<Window> history) {
    setup_.SetHistory(std::move(history));
  }

  /// Validates the setup, grants the pattern-level budget ε, builds the
  /// sharded runtime (with the exchange stage when cross queries exist),
  /// and starts the workers. `factory` is called once here to validate the
  /// configuration and once per shard for that shard's publisher
  /// prototype; each data subject gets a clone of its shard's prototype
  /// (see MechanismFactory and PrivacyMechanism::Clone).
  Status Activate(MechanismFactory factory, double epsilon);

  /// Registers this lane's instruments in `registry` when Activate builds
  /// the runtime: the underlying sharded runtime under lane="private",
  /// per-shard publisher windows/subjects, and per-pattern budget-ledger
  /// gauges. Must precede Activate; `registry` must outlive the engine.
  Status EnableMetrics(obs::MetricsRegistry* registry);

  /// Refreshes the private lane's snapshot-time gauges. No-op before
  /// Activate or without metrics.
  void RefreshMetricGauges();

  /// Appends this lane's health rows (lane="private"). Safe while active.
  void CollectHealth(obs::PipelineHealth* health) const;

  /// The per-pattern budget audit trail: Activate grants every private
  /// pattern its lifetime budget ε and charges the activation against it.
  const PatternBudgetLedger& ledger() const { return ledger_; }

  bool active() const { return runtime_ != nullptr; }

  // --- Service phase (single ingest thread) -------------------------------

  Status OnEvent(const Event& event) override;
  Status OnEventBatch(EventSpan events) override;

  /// Non-terminal barrier: waits until every event ingested so far has
  /// been absorbed by its shard's publisher (windows still open stay
  /// open). Workers stay alive and ingestion may continue; results remain
  /// behind Finish().
  Status Drain();

  /// Drains the shards, finalizes every publisher on its worker (closing
  /// each subject's open window and forwarding the final protected views),
  /// and seals the exchange. Terminal for ingestion: further OnEvent calls
  /// are refused. Idempotent. Results are valid once this returns.
  Status Finish();
  Status OnEnd() override { return Finish(); }

  /// Joins the shard workers. Idempotent; called by the destructor.
  Status Stop();

  // --- Results (valid after Finish(); publisher state is worker-owned
  // until the Finish barrier, so these refuse to read it early) -----------

  /// All data subjects observed, ascending. Empty before Finish().
  std::vector<StreamId> SubjectIds() const;

  /// Protected answers of one subject (indexed by query id). NotFound for
  /// subjects that never emitted an event; FailedPrecondition before
  /// Finish().
  StatusOr<SubjectResults> ResultsFor(StreamId subject) const;

  /// Non-copying variant: the view lives in the owning publisher and stays
  /// valid until this engine is destroyed. Same error contract as
  /// ResultsFor.
  StatusOr<const SubjectResults*> ResultsViewFor(StreamId subject) const;

  /// Detections of one cross-subject query over the protected-view stream,
  /// merged across merge shards and sorted by timestamp (window starts).
  /// FailedPrecondition before Finish().
  StatusOr<std::vector<Timestamp>> CrossDetectionsOf(
      size_t cross_query_index) const;

  /// Resolves a target query's registered name to its QueryId. Unknown
  /// names are a hard NotFound error — never an empty default.
  StatusOr<QueryId> TargetQueryIdOf(const std::string& query_name) const;

  /// Resolves a cross query's registered name to its index; NotFound for
  /// unknown names.
  StatusOr<size_t> CrossQueryIndexOf(const std::string& query_name) const;

  size_t cross_query_count() const { return cross_queries_.size(); }

  /// Total cross-subject detections. 0 before Finish().
  size_t total_cross_detections() const;

  /// Windows published across all subjects and shards. 0 before Finish().
  size_t total_windows() const;

  size_t events_processed() const;

  /// Events dropped by the overload policy (0 under the default kBlock
  /// policy or before Activate). Safe from any thread.
  uint64_t events_shed() const {
    return runtime_ != nullptr ? runtime_->events_shed() : 0;
  }

  size_t shard_count() const;
  std::vector<ShardStats> ShardStatsSnapshot() const;
  std::vector<ShardStats> CrossShardStatsSnapshot() const;

 private:
  struct CrossQuery {
    std::string name;
    Pattern pattern;
    Timestamp window = 0;
  };

  SubjectPublisherOptions MakePublisherOptions() const;

  ParallelPrivateOptions options_;
  PrivateCepEngine setup_;
  MechanismFactory factory_;
  double epsilon_ = 0.0;
  std::vector<CrossQuery> cross_queries_;
  std::unique_ptr<ParallelStreamingEngine> runtime_;
  /// One publisher per shard, owned by the shards (via their sinks).
  std::vector<SubjectViewPublisher*> publishers_;
  /// Activation budget audit: one grant + one activation charge per
  /// private pattern (always maintained, metrics or not).
  PatternBudgetLedger ledger_;
  /// Registry recorded by EnableMetrics, wired during Activate.
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Single-driver contract: one thread drives ingest, Finish, and the
  /// post-Finish result reads (asserted at those entry points).
  ThreadRole driver_role_;
  bool finished_ PLDP_GUARDED_BY(driver_role_) = false;
  /// First Finalize error, re-returned by every later Finish().
  Status finish_status_ PLDP_GUARDED_BY(driver_role_) = Status::OK();
};

}  // namespace pldp

#endif  // PLDP_CORE_PARALLEL_PRIVATE_ENGINE_H_
