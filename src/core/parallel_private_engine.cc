// Copyright 2026 The PLDP Authors.

#include "core/parallel_private_engine.h"

#include <algorithm>
#include <utility>

namespace pldp {
namespace {

/// Adapts a SubjectViewPublisher to the shard worker's sink interface and
/// taps its protected views for the exchange: every published view is
/// flattened into presence events (one per present type, timestamped at
/// the window start, attributed to the subject) and emitted downstream.
/// Raw events never reach the emitter — only post-perturbation views do.
class PublisherSink final : public ShardEventSink {
 public:
  explicit PublisherSink(SubjectPublisherOptions options)
      : publisher_(std::move(options)) {
    publisher_.SetViewCallback(
        [this](StreamId subject, const Window& window,
               const PublishedView& view) {
          ForwardView(subject, window, view);
        });
  }

  void OnShardEvent(const Event& event) override { publisher_.Absorb(event); }

  void AttachExchangeEmitter(ExchangeEmitter* emitter) override {
    emitter_ = emitter;
  }

  void OnShardFinish(uint64_t finish_seq) override {
    // Publisher finalization runs here, on the worker, so the final views
    // flow through the exchange before the terminal frontier closes the
    // lanes. Errors latch inside the publisher; Finish() collects them.
    finalizing_ = true;
    finish_seq_ = finish_seq;
    (void)publisher_.Finalize();
    finalizing_ = false;
  }

  SubjectViewPublisher* publisher() { return &publisher_; }

 private:
  void ForwardView(StreamId subject, const Window& window,
                   const PublishedView& view) {
    if (emitter_ == nullptr) return;
    if (finalizing_) {
      // Finalize-time views are triggered at finish_seq + subject: subjects
      // are disjoint across shards, so no two producers stamp the same
      // primary (the frontier's credit-liveness argument needs that), and
      // the merged order is ascending subject — matching a sequential
      // publisher's ordered Finalize.
      emitter_->BeginTrigger(finish_seq_ + subject);
    }
    for (size_t t = 0; t < view.presence.size(); ++t) {
      if (!view.presence[t]) continue;
      (void)emitter_->Emit(
          Event(static_cast<EventTypeId>(t), window.start, subject));
    }
  }

  SubjectViewPublisher publisher_;
  ExchangeEmitter* emitter_ = nullptr;
  bool finalizing_ = false;
  uint64_t finish_seq_ = 0;
};

}  // namespace

ParallelPrivateEngine::ParallelPrivateEngine(ParallelPrivateOptions options)
    : options_(options) {}

ParallelPrivateEngine::~ParallelPrivateEngine() { (void)Stop(); }

StatusOr<PatternId> ParallelPrivateEngine::RegisterPrivatePattern(
    Pattern pattern) {
  if (active()) {
    return Status::FailedPrecondition(
        "setup phase is over (Activate was called)");
  }
  return setup_.RegisterPrivatePattern(std::move(pattern));
}

StatusOr<QueryId> ParallelPrivateEngine::RegisterTargetQuery(
    const std::string& query_name, Pattern pattern) {
  if (active()) {
    return Status::FailedPrecondition(
        "setup phase is over (Activate was called)");
  }
  return setup_.RegisterTargetQuery(query_name, std::move(pattern));
}

StatusOr<size_t> ParallelPrivateEngine::RegisterCrossTargetQuery(
    const std::string& query_name, Pattern pattern, Timestamp window) {
  if (active()) {
    return Status::FailedPrecondition(
        "setup phase is over (Activate was called)");
  }
  CrossQuery query;
  query.name = query_name;
  query.pattern = std::move(pattern);
  query.window = window;
  cross_queries_.push_back(std::move(query));
  return cross_queries_.size() - 1;
}

SubjectPublisherOptions ParallelPrivateEngine::MakePublisherOptions() const {
  SubjectPublisherOptions opts;
  opts.context = setup_.BuildContext(epsilon_);
  opts.factory = factory_;
  opts.queries = setup_.queries();
  opts.window_size = options_.window_size;
  opts.window_origin = options_.window_origin;
  opts.seed = options_.seed;
  return opts;
}

Status ParallelPrivateEngine::Activate(MechanismFactory factory,
                                       double epsilon) {
  if (active()) return Status::FailedPrecondition("already active");
  if (!factory) return Status::InvalidArgument("factory must not be null");
  if (options_.window_size <= 0) {
    return Status::InvalidArgument("options.window_size must be > 0");
  }
  if (setup_.private_patterns().empty()) {
    return Status::FailedPrecondition(
        "no private patterns registered; use the plain runtime when nothing "
        "needs protection");
  }
  if (setup_.queries().empty()) {
    return Status::FailedPrecondition("no target queries registered");
  }
  factory_ = std::move(factory);
  epsilon_ = epsilon;

  // Validate the mechanism configuration eagerly (like
  // PrivateCepEngine::Activate) instead of surfacing the error on the first
  // event of some shard.
  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<PrivacyMechanism> probe, factory_());
  if (probe == nullptr) {
    return Status::InvalidArgument("factory returned a null mechanism");
  }
  PLDP_RETURN_IF_ERROR(probe->Initialize(setup_.BuildContext(epsilon_)));

  ParallelEngineOptions runtime_options;
  runtime_options.shard_count = options_.shard_count;
  runtime_options.queue_capacity = options_.queue_capacity;
  runtime_options.overload = options_.overload;
  runtime_options.sink_factory = [this](size_t) {
    auto sink = std::make_unique<PublisherSink>(MakePublisherOptions());
    publishers_.push_back(sink->publisher());
    return std::unique_ptr<ShardEventSink>(std::move(sink));
  };
  runtime_options.exchange = options_.exchange;
  // Every shard has a publisher sink, so the runtime never forwards a raw
  // event: only protected views cross the exchange.
  runtime_ = std::make_unique<ParallelStreamingEngine>(runtime_options);
  // One lane-group under the global key: every view event meets every
  // cross query on one merge shard, in sequential publication order.
  const ShardKeyFn global_key = [](const Event&) { return uint64_t{0}; };
  for (const CrossQuery& query : cross_queries_) {
    StatusOr<size_t> added = runtime_->AddCrossQuery(
        query.pattern, query.window, "default", global_key);
    if (!added.ok()) {
      runtime_.reset();
      publishers_.clear();
      return added.status();
    }
  }

  // Budget accounting: this activation spends each private pattern's
  // lifetime budget ε (sequential composition — a later re-activation
  // would need a fresh ledger). Recorded whether or not metrics are on.
  for (PatternId id : setup_.private_patterns()) {
    Status granted = ledger_.Grant(id, epsilon_);
    if (granted.ok()) {
      granted = ledger_.Charge(id, epsilon_, "service activation");
    }
    if (!granted.ok()) {
      runtime_.reset();
      publishers_.clear();
      return granted;
    }
  }

  if (metrics_ != nullptr) {
    Status wired = runtime_->EnableMetrics(metrics_, "private");
    if (!wired.ok()) {
      runtime_.reset();
      publishers_.clear();
      return wired;
    }
    for (size_t i = 0; i < publishers_.size(); ++i) {
      const std::string shard_label = std::to_string(i);
      obs::PublisherInstruments ins;
      ins.windows = metrics_->AddCounter(
          "pldp_private_windows_total",
          "Protected windows published by a shard's publisher",
          {{"lane", "private"}, {"shard", shard_label}});
      ins.subjects = metrics_->AddGauge(
          "pldp_private_subjects",
          "Distinct data subjects with live state on a shard",
          {{"lane", "private"}, {"shard", shard_label}});
      publishers_[i]->SetInstruments(ins);
    }
    for (PatternId id : setup_.private_patterns()) {
      const std::string& name = setup_.patterns().Get(id).name();
      obs::Gauge* granted = metrics_->AddGauge(
          "pldp_dp_budget_granted",
          "Lifetime privacy budget granted to a private pattern (epsilon)",
          {{"pattern", name}});
      if (granted != nullptr) granted->Set(epsilon_);
      obs::Gauge* spent = metrics_->AddGauge(
          "pldp_dp_budget_spent",
          "Privacy budget charged against a private pattern (epsilon)",
          {{"pattern", name}});
      StatusOr<double> remaining = ledger_.Remaining(id);
      if (spent != nullptr && remaining.ok()) {
        spent->Set(epsilon_ - remaining.value());
      }
    }
  }

  Status started = runtime_->Start();
  if (!started.ok()) {
    runtime_.reset();
    publishers_.clear();
  }
  return started;
}

Status ParallelPrivateEngine::EnableMetrics(obs::MetricsRegistry* registry) {
  if (active()) {
    return Status::FailedPrecondition("EnableMetrics must precede Activate()");
  }
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must not be null");
  }
  if (metrics_ != nullptr) {
    return Status::FailedPrecondition("metrics already enabled");
  }
  metrics_ = registry;
  return Status::OK();
}

void ParallelPrivateEngine::RefreshMetricGauges() {
  if (runtime_ != nullptr) runtime_->RefreshMetricGauges();
}

void ParallelPrivateEngine::CollectHealth(obs::PipelineHealth* health) const {
  if (runtime_ != nullptr) runtime_->CollectHealth(health, "private");
}

Status ParallelPrivateEngine::OnEvent(const Event& event) {
  driver_role_.Assert();
  if (!active()) return Status::FailedPrecondition("Activate() not called");
  if (finished_) {
    return Status::FailedPrecondition("ingestion after Finish()");
  }
  return runtime_->OnEvent(event);
}

Status ParallelPrivateEngine::OnEventBatch(EventSpan events) {
  driver_role_.Assert();
  if (!active()) return Status::FailedPrecondition("Activate() not called");
  if (finished_) {
    return Status::FailedPrecondition("ingestion after Finish()");
  }
  return runtime_->OnEventBatch(events);
}

Status ParallelPrivateEngine::Drain() {
  driver_role_.Assert();
  if (!active()) return Status::FailedPrecondition("Activate() not called");
  return runtime_->Drain();
}

Status ParallelPrivateEngine::Finish() {
  driver_role_.Assert();
  if (!active()) return Status::FailedPrecondition("Activate() not called");
  if (finished_) return finish_status_;
  // The runtime's Finish runs every publisher's Finalize on its own worker
  // (forwarding the final views through the exchange) and seals the
  // stage-2 side; its barrier orders every worker-side mutation before the
  // orchestrator's reads below.
  PLDP_RETURN_IF_ERROR(runtime_->Finish());
  finished_ = true;
  for (SubjectViewPublisher* publisher : publishers_) {
    // Already finalized on the worker; this just collects latched errors.
    const Status s = publisher->Finalize();
    if (finish_status_.ok() && !s.ok()) finish_status_ = s;
  }
  return finish_status_;
}

Status ParallelPrivateEngine::Stop() {
  if (!active()) return Status::OK();
  return runtime_->Stop();
}

std::vector<StreamId> ParallelPrivateEngine::SubjectIds() const {
  driver_role_.Assert();
  std::vector<StreamId> ids;
  if (!finished_) return ids;  // publisher state is worker-owned until then
  for (const SubjectViewPublisher* publisher : publishers_) {
    const std::vector<StreamId> part = publisher->SubjectIds();
    ids.insert(ids.end(), part.begin(), part.end());
  }
  std::sort(ids.begin(), ids.end());  // publishers hold disjoint subjects
  return ids;
}

StatusOr<SubjectResults> ParallelPrivateEngine::ResultsFor(
    StreamId subject) const {
  PLDP_ASSIGN_OR_RETURN(const SubjectResults* results,
                        ResultsViewFor(subject));
  return *results;
}

StatusOr<const SubjectResults*> ParallelPrivateEngine::ResultsViewFor(
    StreamId subject) const {
  driver_role_.Assert();
  if (!finished_) {
    return Status::FailedPrecondition(
        "results are only stable after Finish()/OnEnd");
  }
  for (const SubjectViewPublisher* publisher : publishers_) {
    const SubjectResults* results = publisher->ResultsFor(subject);
    if (results != nullptr) return results;
  }
  return Status::NotFound("subject never emitted an event");
}

StatusOr<std::vector<Timestamp>> ParallelPrivateEngine::CrossDetectionsOf(
    size_t cross_query_index) const {
  driver_role_.Assert();
  if (!finished_) {
    return Status::FailedPrecondition(
        "cross detections are only stable after Finish()/OnEnd");
  }
  return runtime_->CrossDetectionsOf(cross_query_index);
}

StatusOr<QueryId> ParallelPrivateEngine::TargetQueryIdOf(
    const std::string& query_name) const {
  for (const BinaryQuery& query : setup_.queries()) {
    if (query.name == query_name) return query.id;
  }
  return Status::NotFound("unknown target query name '" + query_name + "'");
}

StatusOr<size_t> ParallelPrivateEngine::CrossQueryIndexOf(
    const std::string& query_name) const {
  for (size_t i = 0; i < cross_queries_.size(); ++i) {
    if (cross_queries_[i].name == query_name) return i;
  }
  return Status::NotFound("unknown cross query name '" + query_name + "'");
}

size_t ParallelPrivateEngine::total_cross_detections() const {
  driver_role_.Assert();
  if (!finished_ || runtime_ == nullptr) return 0;
  return runtime_->total_cross_detections();
}

size_t ParallelPrivateEngine::total_windows() const {
  driver_role_.Assert();
  size_t total = 0;
  if (!finished_) return total;  // worker-owned until the Finish barrier
  for (const SubjectViewPublisher* publisher : publishers_) {
    total += publisher->total_windows();
  }
  return total;
}

size_t ParallelPrivateEngine::events_processed() const {
  return runtime_ == nullptr ? 0 : runtime_->events_processed();
}

size_t ParallelPrivateEngine::shard_count() const {
  return runtime_ == nullptr ? 0 : runtime_->shard_count();
}

std::vector<ShardStats> ParallelPrivateEngine::ShardStatsSnapshot() const {
  return runtime_ == nullptr ? std::vector<ShardStats>{}
                             : runtime_->ShardStatsSnapshot();
}

std::vector<ShardStats> ParallelPrivateEngine::CrossShardStatsSnapshot()
    const {
  return runtime_ == nullptr ? std::vector<ShardStats>{}
                             : runtime_->CrossShardStatsSnapshot();
}

}  // namespace pldp
