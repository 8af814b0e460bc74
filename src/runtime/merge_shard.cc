// Copyright 2026 The PLDP Authors.

#include "runtime/merge_shard.h"

#include <utility>

#include "runtime/affinity.h"
#include "runtime/backoff.h"

namespace pldp {
namespace {

// Per-lane receive burst: amortizes the queue's release store without
// letting one busy lane starve the merge of the others.
constexpr size_t kReceiveBatch = 128;

}  // namespace

namespace {

size_t SumCredits(const std::vector<ExchangeLane*>& inputs) {
  size_t total = 0;
  for (const ExchangeLane* lane : inputs) total += lane->initial_credits;
  return total;
}

}  // namespace

MergeShard::MergeShard(size_t index, std::vector<ExchangeLane*> inputs)
    : index_(index), reorder_capacity_(SumCredits(inputs)) {
  lanes_.reserve(inputs.size());
  for (ExchangeLane* lane : inputs) {
    lanes_.emplace_back(lane);
    // Defense-in-depth: under credit accounting a lane can never buffer
    // more than its budget; the cap turns a broken invariant into a debug
    // assert instead of silent unbounded growth.
    lanes_.back().buffer.set_capacity_limit(lane->initial_credits);
    // Pre-size the reorder ring to that same bound: the credit budget is
    // the exact worst-case occupancy, so paying the allocation here (at
    // Build()) makes the steady state allocation-flat instead of growing
    // the ring through log2(credits) reallocations under load.
    lanes_.back().buffer.reserve(lane->initial_credits);
    // This shard's worker is the lane queue's sole consumer: route the
    // lane's doorbell (pushes and frontier advances alike) to it.
    lane->queue.SetWaker(&doorbell_);
  }
  engine_.SetCallback([this](const StreamingDetection& d) {
    // order: relaxed; telemetry only.
    detections_.fetch_add(1, std::memory_order_relaxed);
    if (user_callback_) user_callback_(d);
  });
}

MergeShard::~MergeShard() { (void)Stop(); }

StatusOr<size_t> MergeShard::AddQuery(Pattern pattern, Timestamp window) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "MergeShard::AddQuery must precede Start()");
  }
  return engine_.AddQuery(std::move(pattern), window);
}

Status MergeShard::SetInstruments(const obs::MergeInstruments& instruments) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "MergeShard::SetInstruments must precede Start()");
  }
  obs_ = instruments;
  return Status::OK();
}

Status MergeShard::SetDetectionCallback(DetectionCallback callback) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "MergeShard::SetDetectionCallback must precede Start()");
  }
  user_callback_ = std::move(callback);
  return Status::OK();
}

Status MergeShard::Start() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("merge shard already running");
  }
  // Pre-launch the orchestrator owns the worker role; it hands it over by
  // the thread launch (the lambda acquires it on entry).
  worker_role_.Acquire();
  const bool no_lanes = lanes_.empty();
  worker_role_.Release();
  if (no_lanes) {
    return Status::FailedPrecondition("merge shard has no input lanes");
  }
  // order: relaxed; the thread launch below is the synchronization edge.
  stop_requested_.store(false, std::memory_order_relaxed);
  doorbell_.SetCounters(obs_.parks, obs_.wakes);
  worker_ = std::thread([this] {
    if (affinity_core_ >= 0) (void)PinCurrentThreadToCore(affinity_core_);
    worker_role_.Acquire();
    RunLoop();
    worker_role_.Release();
  });
  // order: relaxed; advisory flag for running() observers.
  running_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status MergeShard::WaitSafe(uint64_t bound) {
  Backoff backoff;
  // order: acquire pairs with the worker's release publication (the
  // caller reads the engine after this returns).
  while (safe_primary_.load(std::memory_order_acquire) < bound) {
    backoff.Wait();
  }
  return Status::OK();
}

Status MergeShard::Stop() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (!running_.load(std::memory_order_relaxed)) return Status::OK();
  // order: release so work published before the stop request is visible
  // to the worker that observes it (acquire in RunLoop).
  stop_requested_.store(true, std::memory_order_release);
  doorbell_.Ring();  // A parked worker must observe the stop flag.
  if (worker_.joinable()) worker_.join();
  // The worker is gone and (by the orchestrator's teardown order) so are
  // the producers; this thread is the sole owner now — take the worker
  // role back. Absorb anything a skipped barrier left behind, still in
  // key order so the result is a deterministic function of what arrived.
  worker_role_.Acquire();
  (void)ReceiveAvailable();
  (void)MergePass(/*force=*/true);
  worker_role_.Release();
  // order: release publishes the absorbed leftovers to WaitSafe callers.
  safe_primary_.store(kExchangeSeqEnd, std::memory_order_release);
  // order: relaxed; advisory flag for running() observers.
  running_.store(false, std::memory_order_relaxed);
  return Status::OK();
}

ShardStats MergeShard::stats() const {
  ShardStats s;
  s.shard_index = index_;
  // order: acquire pairs with the worker's release in MergePass, so a
  // reader that saw N processed also sees the engine effects of those N.
  s.events_processed =
      static_cast<size_t>(merged_.load(std::memory_order_acquire));
  // order: relaxed; telemetry only.
  s.detections =
      static_cast<size_t>(detections_.load(std::memory_order_relaxed));
  s.parks = static_cast<size_t>(doorbell_.parks());
  s.wakes = static_cast<size_t>(doorbell_.wakes());
  return s;
}

bool MergeShard::ReceiveAvailable() {
  bool any = false;
  size_t received = 0;
  ExchangeItem burst[kReceiveBatch];
  for (LaneState& lane : lanes_) {
    // Read the frontier BEFORE draining: the producer pushed every item
    // below it before its release store, so this acquire makes all of them
    // visible to the drain below, and the bound is applied only after them.
    // order: acquire pairs with ExchangeEmitter::Broadcast's release store.
    uint64_t frontier = lane.lane->frontier.load(std::memory_order_acquire);
    for (;;) {
      const size_t n = lane.lane->queue.TryPopN(burst, kReceiveBatch);
      if (n == 0) break;
      any = true;
      for (size_t i = 0; i < n; ++i) {
        ExchangeItem& item = burst[i];
        // The applied frontier promised every later item a key at or
        // above it.
        PLDP_PROTOCOL_ASSERT(lane.bound <= item.key);
        // Events bound the future strictly: later keys exceed this one.
        lane.bound = ExchangeKey{item.key.primary, item.key.sub + 1};
#ifdef PLDP_CHECK_NEGATIVE_CREDITS
        // Seeded mutation for the model checker's negative suite:
        // returning the credit at *receipt* instead of at release lets
        // the producer put a full budget back in flight while this
        // buffer still holds the previous budget — push_back trips the
        // ring's PLDP_PROTOCOL_ASSERT capacity cap.
        // atomics-allow: seeded negative-build mutation, not a shipped
        // ordering decision.
        lane.lane->credits.fetch_add(1, std::memory_order_release);
#endif
        lane.buffer.push_back(std::move(item));
        ++received;
      }
      if (n < kReceiveBatch) break;
    }
#ifdef PLDP_CHECK_NEGATIVE_FRONTIER
    // Seeded mutation for the model checker's negative suite: re-reading
    // the frontier *after* the drain can observe a store whose earlier
    // items the drain missed — the next pass receives an item below the
    // applied bound and trips the PLDP_PROTOCOL_ASSERT above.
    // atomics-allow: seeded negative-build mutation, not a shipped
    // ordering decision.
    frontier = lane.lane->frontier.load(std::memory_order_acquire);
#endif
    const ExchangeKey floor{frontier, 0};
    if (lane.bound < floor) lane.bound = floor;
  }
  if (received > 0) {
    // order: relaxed; gauge only, scrape threads don't read the buffers.
    buffered_.fetch_add(received, std::memory_order_relaxed);
    if (obs_.events_received) obs_.events_received->Inc(received);
  }
  return any;
}

bool MergeShard::MergePass(bool force) {
  size_t released = 0;
  // Chained clock reads: one MonotonicNowNs per released event.
  uint64_t t_prev = obs_.merge_latency_ns ? obs::MonotonicNowNs() : 0;
  for (;;) {
    // Candidate: the globally smallest buffered key.
    LaneState* best = nullptr;
    for (LaneState& lane : lanes_) {
      if (lane.buffer.empty()) continue;
      if (best == nullptr ||
          lane.buffer.front().key < best->buffer.front().key) {
        best = &lane;
      }
    }
    if (best == nullptr) break;
    if (!force) {
      // Release only when every silent lane provably passed the candidate.
      const ExchangeKey& key = best->buffer.front().key;
      bool safe = true;
      for (const LaneState& lane : lanes_) {
        if (lane.buffer.empty() && lane.bound <= key) {
          safe = false;
          break;
        }
      }
      if (!safe) break;
    }
    // The engine's status is always OK today (see Shard::RunLoop); a future
    // failing engine would latch the error for the drain barrier.
    (void)engine_.OnEvent(best->buffer.front().event);
    best->buffer.pop_front();
#ifndef PLDP_CHECK_NEGATIVE_CREDITS
    // Return the flow-control credit: the event left the reorder buffer,
    // so its producer may put another one in flight on this lane.
    // order: release pairs with the producer's acquire load — the freed
    // buffer slot must be visible before it is refilled.
    best->lane->credits.fetch_add(1, std::memory_order_release);
#endif
    ++released;
    if (obs_.merge_latency_ns) {
      const uint64_t t_now = obs::MonotonicNowNs();
      obs_.merge_latency_ns->Record(t_now - t_prev);
      t_prev = t_now;
    }
  }
  if (released > 0) {
    // order: release publishes the engine effects to stats() readers.
    merged_.fetch_add(released, std::memory_order_release);
    // order: relaxed; gauge only.
    buffered_.fetch_sub(released, std::memory_order_relaxed);
    if (obs_.events_merged) obs_.events_merged->Inc(released);
  }
  return released > 0;
}

void MergeShard::PublishSafeBound() {
  uint64_t frontier = kExchangeSeqEnd;
  for (const LaneState& lane : lanes_) {
    const uint64_t lane_frontier = lane.buffer.empty()
                                       ? lane.bound.primary
                                       : lane.buffer.front().key.primary;
    if (lane_frontier < frontier) frontier = lane_frontier;
  }
  // order: relaxed; this thread is the only writer, so its own last
  // store is always visible to it.
  if (frontier > safe_primary_.load(std::memory_order_relaxed)) {
    // order: release publishes the merged engine state to WaitSafe.
    safe_primary_.store(frontier, std::memory_order_release);
  }
}

void MergeShard::RunLoop() {
  Backoff backoff;
  // Plain snapshot for the park predicate: the lane set is frozen at
  // construction, but `lanes_` itself is worker-role-guarded and the
  // predicate lambda is analyzed as an unannotated function — so it
  // captures only this unguarded local. `applied` is refreshed before each
  // park with the frontier primary the lane's bound already covers.
  struct Watch {
    SpscQueue<ExchangeItem>* queue;
    const Atomic<uint64_t>* frontier;
    uint64_t applied;
  };
  std::vector<Watch> watch;
  watch.reserve(lanes_.size());
  for (LaneState& lane : lanes_) {
    watch.push_back({&lane.lane->queue, &lane.lane->frontier, 0});
  }
  for (;;) {
    const bool received = ReceiveAvailable();
    const bool merged = MergePass(/*force=*/false);
    PublishSafeBound();
    if (received || merged) {
      backoff.Reset();
      continue;
    }
    // order: acquire pairs with Stop()'s release store.
    if (stop_requested_.load(std::memory_order_acquire)) return;
    if (backoff.ShouldPark()) {
      // Every wake source rings this doorbell: lane pushes (via
      // SetWaker), frontier advances (ExchangeEmitter::Broadcast) and
      // Stop(). Merge progress is entirely driven by lane input, so an
      // all-empty column whose frontiers are all applied, with no stop, is
      // genuinely idle. See runtime/backoff.h for the lost-wakeup
      // argument.
      for (size_t i = 0; i < watch.size(); ++i) {
        watch[i].applied = lanes_[i].bound.primary;
      }
      (void)doorbell_.ParkUnless([this, &watch] {
        for (const Watch& w : watch) {
          if (!w.queue->ApproxEmpty()) return true;
          // order: acquire pairs with Broadcast's release store.
          if (w.frontier->load(std::memory_order_acquire) > w.applied) {
            return true;
          }
        }
        // order: acquire (same pairing as the loop check above).
        return stop_requested_.load(std::memory_order_acquire);
      });
      backoff.Reset();
      continue;
    }
    backoff.Wait();
  }
}

}  // namespace pldp
