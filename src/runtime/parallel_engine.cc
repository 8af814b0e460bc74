// Copyright 2026 The PLDP Authors.

#include "runtime/parallel_engine.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "runtime/affinity.h"

namespace pldp {
namespace {

size_t ResolveShardCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// How often the per-event ingest path refreshes every shard's producer
// floor (power of two; amortizes the O(shards) stores).
constexpr uint64_t kProducerFloorPeriod = 1024;

}  // namespace

ParallelStreamingEngine::ParallelStreamingEngine(ParallelEngineOptions options)
    : router_(ResolveShardCount(options.shard_count)),
      exchange_options_(options.exchange),
      overload_options_(options.overload),
      pin_threads_(options.pin_threads),
      affinity_cores_(options.affinity_cores) {
  const size_t n = router_.shard_count();

  shards_.reserve(n);
  staging_.resize(n);
  // Pre-size the per-shard staging buffers so steady-state batched ingest
  // never grows them: a batch can stage at most its own size per shard, and
  // capacity is retained across OnEventBatch calls (clear() keeps it).
  for (auto& buf : staging_) buf.reserve(options.queue_capacity);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, options.queue_capacity));
    if (options.sink_factory) {
      (void)shards_.back()->SetEventSink(options.sink_factory(i));
    }
  }

  if (overload_options_.policy != OverloadPolicy::kBlock) {
    // The shedding policies interpose the admission layer; the blocking
    // default keeps the historic direct-push path with zero overhead.
    std::vector<Shard*> raw;
    raw.reserve(shards_.size());
    for (auto& shard : shards_) raw.push_back(shard.get());
    admission_ = std::make_unique<AdmissionQueue>(
        overload_options_, std::move(raw), &events_ingested_);
  }
}

ParallelStreamingEngine::~ParallelStreamingEngine() { (void)Stop(); }

StatusOr<size_t> ParallelStreamingEngine::AddQuery(Pattern pattern,
                                                   Timestamp window) {
  if (running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine::AddQuery must precede Start()");
  }
  size_t index = 0;
  for (auto& shard : shards_) {
    StatusOr<size_t> result = shard->AddQuery(pattern, window);
    if (!result.ok()) return result;
    index = result.value();
  }
  query_count_ = index + 1;
  return index;
}

StatusOr<size_t> ParallelStreamingEngine::GetOrCreateGroup(
    const std::string& key_id, ShardKeyFn key_fn) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].key_id == key_id) return g;
  }
  if (!key_fn) {
    return Status::InvalidArgument("correlation key_fn must not be null");
  }
  const size_t n1 = shards_.size();
  const size_t n2 = exchange_options_.shard_count > 0
                        ? exchange_options_.shard_count
                        : n1;
  ExchangeGroup group;
  group.key_id = key_id;
  group.fabric = std::make_unique<ExchangeFabric>(
      n1, n2, exchange_options_.lane_capacity,
      exchange_options_.reorder_capacity);
  group.merge_shards.reserve(n2);
  for (size_t c = 0; c < n2; ++c) {
    group.merge_shards.push_back(
        std::make_unique<MergeShard>(c, group.fabric->Column(c)));
  }
  for (size_t i = 0; i < n1; ++i) {
    auto emitter = std::make_unique<ExchangeEmitter>(
        group.fabric->Row(i), key_fn, group.fabric.get());
    PLDP_RETURN_IF_ERROR(shards_[i]->AddExchange(std::move(emitter)));
  }
  groups_.push_back(std::move(group));
  return groups_.size() - 1;
}

StatusOr<size_t> ParallelStreamingEngine::AddCrossQuery(
    Pattern pattern, Timestamp window, const std::string& key_id,
    ShardKeyFn key_fn) {
  if (running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine::AddCrossQuery must precede Start()");
  }
  PLDP_ASSIGN_OR_RETURN(size_t group_index,
                        GetOrCreateGroup(key_id, std::move(key_fn)));
  ExchangeGroup& group = groups_[group_index];
  size_t local = 0;
  for (auto& merge_shard : group.merge_shards) {
    StatusOr<size_t> result = merge_shard->AddQuery(pattern, window);
    if (!result.ok()) return result;
    local = result.value();
  }
  group.query_count = local + 1;
  cross_index_.emplace_back(group_index, local);
  return cross_index_.size() - 1;
}

Status ParallelStreamingEngine::EnableMetrics(obs::MetricsRegistry* registry,
                                              const std::string& lane) {
  if (running_) {
    return Status::FailedPrecondition(
        "EnableMetrics must precede Start()");
  }
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must not be null");
  }
  if (metrics_ != nullptr) {
    return Status::FailedPrecondition("metrics already enabled");
  }
  metrics_ = registry;
  metrics_lane_ = lane;

  shard_queue_gauges_.resize(shards_.size(), nullptr);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string shard_label = std::to_string(i);
    obs::ShardInstruments ins;
    ins.events = registry->AddCounter(
        "pldp_shard_events_total", "Events popped and processed by a shard",
        {{"lane", lane}, {"shard", shard_label}});
    ins.backpressure_waits = registry->AddCounter(
        "pldp_shard_backpressure_waits_total",
        "Full-queue waits a producer spent pushing to a shard",
        {{"lane", lane}, {"shard", shard_label}});
    ins.batch_size = registry->AddHistogram(
        "pldp_shard_batch_size", "Events per worker pop burst",
        {{"lane", lane}, {"shard", shard_label}});
    ins.process_latency_ns = registry->AddHistogram(
        "pldp_shard_process_latency_ns",
        "Per-event shard processing latency (engine + sink + exchange), ns",
        {{"lane", lane}, {"shard", shard_label}});
    ins.parks = registry->AddCounter(
        "pldp_shard_parks_total",
        "Times an idle shard worker parked on its doorbell",
        {{"lane", lane}, {"shard", shard_label}});
    ins.wakes = registry->AddCounter(
        "pldp_shard_wakes_total",
        "Slow-path doorbell notifies that woke a parked shard worker",
        {{"lane", lane}, {"shard", shard_label}});
    shard_queue_gauges_[i] = registry->AddGauge(
        "pldp_shard_queue_depth", "Instantaneous shard input-queue depth",
        {{"lane", lane}, {"shard", shard_label}});
    ins.queue_depth = shard_queue_gauges_[i];
    PLDP_RETURN_IF_ERROR(shards_[i]->SetInstruments(ins));
    if (admission_ != nullptr) {
      admission_->SetShedInstrument(
          i, registry->AddCounter(
                 "pldp_shed_events_total",
                 "Events deliberately dropped by the overload policy",
                 {{"lane", lane},
                  {"shard", shard_label},
                  {"policy", OverloadPolicyName(overload_options_.policy)}}));
    }
  }

  lane_depth_gauges_.assign(groups_.size(), {});
  merge_reorder_gauges_.assign(groups_.size(), {});
  merge_lag_gauges_.assign(groups_.size(), {});
  merge_capacity_gauges_.assign(groups_.size(), {});
  for (size_t g = 0; g < groups_.size(); ++g) {
    const ExchangeGroup& group = groups_[g];
    const std::string& group_label = group.key_id;
    lane_depth_gauges_[g].resize(shards_.size(), nullptr);
    for (size_t p = 0; p < shards_.size(); ++p) {
      const std::string producer_label = std::to_string(p);
      obs::ExchangeInstruments ins;
      ins.forwarded = registry->AddCounter(
          "pldp_exchange_forwarded_total",
          "Events a producer emitted into an exchange lane-group",
          {{"lane", lane}, {"group", group_label},
           {"producer", producer_label}});
      ins.watermarks = registry->AddCounter(
          "pldp_exchange_watermarks_total",
          "Frontier advances on a producer's exchange row",
          {{"lane", lane}, {"group", group_label},
           {"producer", producer_label}});
      ins.backpressure_waits = registry->AddCounter(
          "pldp_exchange_backpressure_waits_total",
          "Full-lane waits a producer spent emitting downstream",
          {{"lane", lane}, {"group", group_label},
           {"producer", producer_label}});
      ins.credit_exhausted_waits = registry->AddCounter(
          "pldp_exchange_credit_exhausted_waits_total",
          "Credit-exhausted stalls a producer spent waiting on a merge shard",
          {{"lane", lane}, {"group", group_label},
           {"producer", producer_label}});
      lane_depth_gauges_[g][p] = registry->AddGauge(
          "pldp_exchange_lane_depth",
          "Instantaneous occupancy of a producer's exchange row",
          {{"lane", lane}, {"group", group_label},
           {"producer", producer_label}});
      ins.lane_depth = lane_depth_gauges_[g][p];
      // Shard emitter index g is groups_[g]'s emitter (see header invariant).
      shards_[p]->exchange_emitter(g)->SetInstruments(ins);
    }
    merge_reorder_gauges_[g].resize(group.merge_shards.size(), nullptr);
    merge_lag_gauges_[g].resize(group.merge_shards.size(), nullptr);
    merge_capacity_gauges_[g].resize(group.merge_shards.size(), nullptr);
    for (size_t c = 0; c < group.merge_shards.size(); ++c) {
      const std::string shard_label = std::to_string(c);
      obs::MergeInstruments ins;
      ins.events_received = registry->AddCounter(
          "pldp_merge_events_received_total",
          "Events a merge shard popped from its exchange lanes",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.events_merged = registry->AddCounter(
          "pldp_merge_events_total",
          "Events a merge shard released to its engine in global order",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.merge_latency_ns = registry->AddHistogram(
          "pldp_merge_latency_ns",
          "Per-released-event merge+match latency, ns",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.parks = registry->AddCounter(
          "pldp_merge_parks_total",
          "Times an idle merge-shard worker parked on its doorbell",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.wakes = registry->AddCounter(
          "pldp_merge_wakes_total",
          "Slow-path doorbell notifies that woke a parked merge worker",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      merge_reorder_gauges_[g][c] = registry->AddGauge(
          "pldp_merge_reorder_depth",
          "Instantaneous reorder-buffer occupancy of a merge shard",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.reorder_depth = merge_reorder_gauges_[g][c];
      merge_lag_gauges_[g][c] = registry->AddGauge(
          "pldp_merge_watermark_lag",
          "Ingest frontier minus a merge shard's safe watermark (events)",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.watermark_lag = merge_lag_gauges_[g][c];
      merge_capacity_gauges_[g][c] = registry->AddGauge(
          "pldp_merge_reorder_capacity",
          "Hard reorder-buffer bound of a merge shard (sum of lane credits)",
          {{"lane", lane}, {"group", group_label}, {"shard", shard_label}});
      ins.reorder_capacity = merge_capacity_gauges_[g][c];
      merge_capacity_gauges_[g][c]->Set(
          static_cast<double>(group.merge_shards[c]->reorder_capacity()));
      PLDP_RETURN_IF_ERROR(group.merge_shards[c]->SetInstruments(ins));
    }
  }
  return Status::OK();
}

void ParallelStreamingEngine::RefreshMetricGauges() {
  if (metrics_ == nullptr) return;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shard_queue_gauges_[i] != nullptr) {
      shard_queue_gauges_[i]->Set(
          static_cast<double>(shards_[i]->queue_depth()));
    }
  }
  const uint64_t frontier = IngestFrontier();
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t p = 0; p < shards_.size(); ++p) {
      if (lane_depth_gauges_[g][p] != nullptr) {
        lane_depth_gauges_[g][p]->Set(
            static_cast<double>(shards_[p]->exchange_emitter(g)->RowDepth()));
      }
    }
    for (size_t c = 0; c < groups_[g].merge_shards.size(); ++c) {
      const MergeShard& merge = *groups_[g].merge_shards[c];
      if (merge_reorder_gauges_[g][c] != nullptr) {
        merge_reorder_gauges_[g][c]->Set(
            static_cast<double>(merge.reorder_buffered()));
      }
      if (merge_lag_gauges_[g][c] != nullptr) {
        const uint64_t safe = merge.safe_primary();
        merge_lag_gauges_[g][c]->Set(
            safe >= frontier ? 0.0
                             : static_cast<double>(frontier - safe));
      }
      if (merge_capacity_gauges_[g][c] != nullptr) {
        merge_capacity_gauges_[g][c]->Set(
            static_cast<double>(merge.reorder_capacity()));
      }
    }
  }
}

Status ParallelStreamingEngine::SetQueryCallback(
    size_t query_index, std::function<void(Timestamp)> callback) {
  if (running_) {
    return Status::FailedPrecondition(
        "SetQueryCallback must precede Start()");
  }
  if (query_index >= query_count_) {
    return Status::OutOfRange("unknown stage-1 query index " +
                              std::to_string(query_index));
  }
  if (query_callbacks_.size() < query_count_) {
    query_callbacks_.resize(query_count_);
  }
  query_callbacks_[query_index] = std::move(callback);
  return Status::OK();
}

Status ParallelStreamingEngine::SetCrossQueryCallback(
    size_t cross_query_index, std::function<void(Timestamp)> callback) {
  if (running_) {
    return Status::FailedPrecondition(
        "SetCrossQueryCallback must precede Start()");
  }
  if (cross_query_index >= cross_index_.size()) {
    return Status::OutOfRange("unknown cross query index " +
                              std::to_string(cross_query_index));
  }
  if (cross_query_callbacks_.size() < cross_index_.size()) {
    cross_query_callbacks_.resize(cross_index_.size());
  }
  cross_query_callbacks_[cross_query_index] = std::move(callback);
  return Status::OK();
}

void ParallelStreamingEngine::InstallCallbackDispatchers() {
  bool any_plain = false;
  for (const auto& cb : query_callbacks_) {
    if (cb) any_plain = true;
  }
  if (any_plain) {
    for (auto& shard : shards_) {
      // One dispatcher per shard; callbacks_ is frozen once Start ran, so
      // worker-thread reads are race-free. The same user callback may fire
      // concurrently from several shards — documented as thread-safe.
      (void)shard->SetDetectionCallback([this](const StreamingDetection& d) {
        if (d.query_index < query_callbacks_.size() &&
            query_callbacks_[d.query_index]) {
          query_callbacks_[d.query_index](d.at);
        }
      });
    }
  }
  bool any_cross = false;
  for (const auto& cb : cross_query_callbacks_) {
    if (cb) any_cross = true;
  }
  if (any_cross) {
    // Merge-shard engines use group-local indices; invert cross_index_
    // into one local->global map per group for the dispatchers.
    std::vector<std::vector<size_t>> local_to_global(groups_.size());
    for (size_t g = 0; g < groups_.size(); ++g) {
      local_to_global[g].resize(groups_[g].query_count, SIZE_MAX);
    }
    for (size_t global = 0; global < cross_index_.size(); ++global) {
      const auto [g, local] = cross_index_[global];
      local_to_global[g][local] = global;
    }
    for (size_t g = 0; g < groups_.size(); ++g) {
      auto map = local_to_global[g];
      for (auto& merge_shard : groups_[g].merge_shards) {
        (void)merge_shard->SetDetectionCallback(
            [this, map](const StreamingDetection& d) {
              if (d.query_index >= map.size()) return;
              const size_t global = map[d.query_index];
              if (global < cross_query_callbacks_.size() &&
                  cross_query_callbacks_[global]) {
                cross_query_callbacks_[global](d.at);
              }
            });
      }
    }
  }
}

void ParallelStreamingEngine::CollectHealth(obs::PipelineHealth* health,
                                            const std::string& lane) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    obs::PipelineHealth::ShardRow row;
    row.lane = lane;
    row.shard = i;
    row.queue_depth = shards_[i]->queue_depth();
    row.queue_capacity = shards_[i]->queue_capacity();
    row.saturation = row.queue_capacity == 0
                         ? 0.0
                         : static_cast<double>(row.queue_depth) /
                               static_cast<double>(row.queue_capacity);
    health->shards.push_back(std::move(row));
  }
  const uint64_t frontier = IngestFrontier();
  for (const auto& group : groups_) {
    for (size_t c = 0; c < group.merge_shards.size(); ++c) {
      const MergeShard& merge = *group.merge_shards[c];
      obs::PipelineHealth::GroupRow row;
      row.lane = lane;
      row.group = group.key_id;
      row.merge_shard = c;
      const uint64_t safe = merge.safe_primary();
      row.watermark_lag = safe >= frontier ? 0 : frontier - safe;
      row.reorder_depth = merge.reorder_buffered();
      row.reorder_capacity = merge.reorder_capacity();
      health->groups.push_back(std::move(row));
    }
  }
}

Status ParallelStreamingEngine::Start() {
  if (running_) {
    return Status::FailedPrecondition("engine already running");
  }
  InstallCallbackDispatchers();
  if (pin_threads_) {
    // Round-robin core assignment, stage-1 shards first so they land on
    // distinct cores before the merge shards start sharing. Purely a
    // placement hint: PinCurrentThreadToCore degrades to a no-op on
    // unsupported platforms, and oversubscription just wraps around.
    size_t cores = AvailableCoreCount();
    if (affinity_cores_ > 0 && affinity_cores_ < cores) {
      cores = affinity_cores_;
    }
    size_t next_core = 0;
    for (auto& shard : shards_) {
      shard->SetAffinityCore(static_cast<int>(next_core++ % cores));
    }
    for (auto& group : groups_) {
      for (auto& merge_shard : group.merge_shards) {
        merge_shard->SetAffinityCore(static_cast<int>(next_core++ % cores));
      }
    }
  }
  // Consumers before producers: a stage-1 worker may block on a full lane
  // the moment it starts, and only a live merge shard ever frees one.
  for (auto& group : groups_) {
    for (auto& merge_shard : group.merge_shards) {
      Status s = merge_shard->Start();
      if (!s.ok()) return s;
    }
  }
  for (auto& shard : shards_) {
    Status s = shard->Start();
    if (!s.ok()) return s;
  }
  // order: relaxed; the finished_ latch is only touched on the
  // externally-serialized orchestration/ingest roles (role asserts) —
  // the atomic guards torn reads from stats paths, not a handoff.
  finished_.store(false, std::memory_order_relaxed);
  running_ = true;
  return Status::OK();
}

Status ParallelStreamingEngine::Drain() {
  if (!running_) return Status::OK();
  if (admission_ != nullptr) {
    // Parked events are part of the ingested stream; the barrier is only a
    // barrier once they have landed in their shard queues.
    PLDP_RETURN_IF_ERROR(admission_->FlushBlocking());
  }
  const uint64_t bound = IngestFrontier();
  for (auto& shard : shards_) {
    Status s = shard->Drain();
    if (!s.ok()) return s;
  }
  if (!groups_.empty()) {
    // Two-phase barrier: every producer raises its frontier, asserting it
    // forwarded everything below `bound` it will ever see (one command
    // raises every lane-group's row), then every merge shard of
    // every group is waited past that bound. Inherits Drain's best-effort
    // semantics when a producer keeps pushing concurrently.
    for (auto& shard : shards_) {
      Status s = shard->RequestFlushWatermark(bound);
      if (!s.ok()) return s;
    }
    for (auto& group : groups_) {
      for (auto& merge_shard : group.merge_shards) {
        Status s = merge_shard->WaitSafe(bound);
        if (!s.ok()) return s;
      }
    }
  }
  return Status::OK();
}

Status ParallelStreamingEngine::Finish() {
  if (!running_) {
    return Status::FailedPrecondition("engine not running");
  }
  // One-shot: a failed finish leaves the pipeline in an undefined terminal
  // state, so the first outcome — success or error — latches and is
  // re-returned forever instead of a retry silently reporting OK.
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (finished_.load(std::memory_order_relaxed)) return finish_status_;
  // Close the ingest gate before any worker finalizes: OnEvent after this
  // point is refused, so finalize-time output is really last.
  // order: relaxed; see the Start() rationale on the finished_ latch.
  finished_.store(true, std::memory_order_relaxed);
  finish_status_ = FinishInternal();
  return finish_status_;
}

Status ParallelStreamingEngine::FinishInternal() {
  if (admission_ != nullptr) {
    PLDP_RETURN_IF_ERROR(admission_->FlushBlocking());
  }
  const uint64_t bound = IngestFrontier();
  for (auto& shard : shards_) {
    PLDP_RETURN_IF_ERROR(shard->Drain());
  }
  // Post the finish command to EVERY shard before waiting on ANY ack.
  // Finalize-time emissions run against bounded credit budgets: shard A's
  // sink output may only become releasable — and its credits returnable —
  // once shard B has run its own finish and raised its frontier past A's
  // finalize primaries. Waiting for A's ack
  // before posting to B would deadlock under small reorder capacities.
  std::vector<uint64_t> tokens;
  tokens.reserve(shards_.size());
  for (auto& shard : shards_) {
    PLDP_ASSIGN_OR_RETURN(uint64_t token, shard->PostFinish(bound));
    tokens.push_back(token);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    PLDP_RETURN_IF_ERROR(shards_[i]->WaitCommandAck(tokens[i]));
  }
  for (auto& group : groups_) {
    for (auto& merge_shard : group.merge_shards) {
      PLDP_RETURN_IF_ERROR(merge_shard->WaitSafe(kExchangeSeqEnd));
    }
  }
  return Status::OK();
}

Status ParallelStreamingEngine::Stop() {
  if (!running_) return Status::OK();
  Status result = Status::OK();
  if (admission_ != nullptr) {
    // Land parked events before the shards go away; a shard racing into
    // stop makes this fail fast, which is the best Stop can do.
    Status s = admission_->FlushBlocking();
    if (result.ok() && !s.ok()) result = s;
  }
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (!groups_.empty() && !finished_.load(std::memory_order_relaxed)) {
    // Make sure stage-2 holds everything before the producers go away.
    result = Drain();
  }
  for (auto& shard : shards_) {
    Status s = shard->Stop();
    if (result.ok() && !s.ok()) result = s;
  }
  for (auto& group : groups_) {
    // Producers are joined; nothing can block on a lane anymore, and any
    // straggler Emit (there should be none) must fail fast.
    group.fabric->Abort();
    for (auto& merge_shard : group.merge_shards) {
      Status s = merge_shard->Stop();
      if (result.ok() && !s.ok()) result = s;
    }
  }
  running_ = false;
  return result;
}

Status ParallelStreamingEngine::OnEvent(const Event& event) {
  ingest_role_.Assert();
  if (!running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine::OnEvent before Start()");
  }
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (finished_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("ingestion after Finish()");
  }
  const size_t target = router_.ShardOf(event);
  if (admission_ != nullptr &&
      admission_->ShouldShedBeforeStamp(target, event)) {
    // Dropped pre-stamping: the sequence space stays gapless, so shedding
    // leaves the watermark protocol untouched.
    return Status::OK();
  }
  StampedEvent stamped;
  // order: relaxed; only ticket uniqueness matters — the event itself is
  // published by the queue push, and floors ride their own releases.
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  stamped.seq = seq;
  stamped.event = event;
  if (admission_ != nullptr) {
    // Queue full turns into park-or-shed instead of blocking; admitted
    // events are counted (via the shared counter) only when they land.
    (void)admission_->Offer(target, std::move(stamped));
  } else {
    PLDP_RETURN_IF_ERROR(shards_[target]->PushStampedN(&stamped, 1));
    // order: relaxed; standalone telemetry counter.
    events_ingested_.fetch_add(1, std::memory_order_relaxed);
  }
  // Periodically tell every shard how far the stream has advanced, so
  // shards starved by routing skew keep raising their frontiers (see
  // Shard::NoteProducerFloor).
  if ((seq & (kProducerFloorPeriod - 1)) == kProducerFloorPeriod - 1) {
    PublishProducerFloor(seq + 1);
  }
  return Status::OK();
}

Status ParallelStreamingEngine::OnEventBatch(EventSpan events) {
  ingest_role_.Assert();
  if (!running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine::OnEventBatch before Start()");
  }
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (finished_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("ingestion after Finish()");
  }
  if (events.empty()) return Status::OK();
  if (admission_ != nullptr) {
    // Per-event admission: the policies need the queue-full decision at
    // event granularity, so the bulk staging fast path does not apply.
    for (const Event& e : events) {
      const size_t target = router_.ShardOf(e);
      if (admission_->ShouldShedBeforeStamp(target, e)) continue;
      StampedEvent stamped;
      // order: relaxed; ticket uniqueness only (see OnEvent).
      stamped.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
      stamped.event = e;
      (void)admission_->Offer(target, std::move(stamped));
    }
    admission_->Pump();
    // order: relaxed; same-thread read of our own fetch_adds, and the
    // floor publication below carries its own release semantics.
    PublishProducerFloor(next_seq_.load(std::memory_order_relaxed));
    return Status::OK();
  }
  for (auto& buf : staging_) buf.clear();
  for (const Event& e : events) {
    StampedEvent stamped;
    // order: relaxed; ticket uniqueness only (see OnEvent).
    stamped.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    stamped.event = e;
    staging_[router_.ShardOf(e)].push_back(std::move(stamped));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (staging_[i].empty()) continue;
    // Count exactly what each queue accepted: on a failed push (e.g.
    // racing Stop) events_ingested_ must still reconcile with the
    // per-shard pushed/processed counters.
    size_t accepted = 0;
    const Status s = shards_[i]->PushStampedN(staging_[i].data(),
                                              staging_[i].size(), &accepted);
    // order: relaxed; standalone telemetry counter.
    events_ingested_.fetch_add(accepted, std::memory_order_relaxed);
    PLDP_RETURN_IF_ERROR(s);
  }
  // Every staged event is now pushed; the whole batch is a safe floor.
  // order: relaxed; same-thread read (see the single-event path).
  PublishProducerFloor(next_seq_.load(std::memory_order_relaxed));
  return Status::OK();
}

void ParallelStreamingEngine::PublishProducerFloor(uint64_t floor) {
  if (groups_.empty()) return;
  if (admission_ != nullptr) {
    // A parked event's sequence number must never fall below a published
    // floor — a late flush would then violate watermark monotonicity.
    floor = admission_->ClampFloor(floor);
  }
  for (auto& shard : shards_) shard->NoteProducerFloor(floor);
}

size_t ParallelStreamingEngine::cross_shard_count() const {
  size_t total = 0;
  for (const auto& group : groups_) total += group.merge_shards.size();
  return total;
}

StatusOr<std::vector<Timestamp>> ParallelStreamingEngine::DetectionsOf(
    size_t query_index) const {
  // Validate at the facade so the error names the right index space (a
  // cross query index passed here must not silently alias a stage-1
  // query, nor the reverse).
  if (query_index >= query_count_) {
    return Status::OutOfRange(
        "unknown stage-1 query index " + std::to_string(query_index) +
        " (registered: " + std::to_string(query_count_) +
        "; cross queries live in their own index space — use "
        "CrossDetectionsOf)");
  }
  std::vector<Timestamp> merged;
  for (const auto& shard : shards_) {
    StatusOr<std::vector<Timestamp>> part =
        shard->engine().DetectionsOf(query_index);
    if (!part.ok()) return part.status();
    merged.insert(merged.end(), part.value().begin(), part.value().end());
  }
  // Per-shard vectors are in arrival order but shards interleave; sort into
  // the canonical multiset representation.
  std::sort(merged.begin(), merged.end());
  return merged;
}

StatusOr<std::vector<Timestamp>> ParallelStreamingEngine::CrossDetectionsOf(
    size_t cross_query_index) const {
  if (groups_.empty()) {
    return Status::FailedPrecondition("exchange stage is not enabled");
  }
  if (cross_query_index >= cross_index_.size()) {
    return Status::OutOfRange(
        "unknown cross query index " + std::to_string(cross_query_index) +
        " (registered: " + std::to_string(cross_index_.size()) + ")");
  }
  const auto [group_index, local_index] = cross_index_[cross_query_index];
  std::vector<Timestamp> merged;
  for (const auto& merge_shard : groups_[group_index].merge_shards) {
    StatusOr<std::vector<Timestamp>> part =
        merge_shard->engine().DetectionsOf(local_index);
    if (!part.ok()) return part.status();
    merged.insert(merged.end(), part.value().begin(), part.value().end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

size_t ParallelStreamingEngine::total_detections() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine().total_detections();
  }
  return total;
}

size_t ParallelStreamingEngine::total_cross_detections() const {
  size_t total = 0;
  for (const auto& group : groups_) {
    for (const auto& merge_shard : group.merge_shards) {
      total += merge_shard->engine().total_detections();
    }
  }
  return total;
}

std::vector<ShardStats> ParallelStreamingEngine::ShardStatsSnapshot() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

uint64_t ParallelStreamingEngine::IngestFrontier() const {
  // order: relaxed; a frontier snapshot may lag — callers treat it as a
  // monotonic hint, and queue pushes publish the events themselves.
  return next_seq_.load(std::memory_order_relaxed);
}

std::vector<ShardStats> ParallelStreamingEngine::CrossShardStatsSnapshot()
    const {
  std::vector<ShardStats> stats;
  stats.reserve(cross_shard_count());
  for (const auto& group : groups_) {
    for (const auto& merge_shard : group.merge_shards) {
      stats.push_back(merge_shard->stats());
    }
  }
  return stats;
}

}  // namespace pldp
