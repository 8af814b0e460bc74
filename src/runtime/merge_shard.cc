// Copyright 2026 The PLDP Authors.

#include "runtime/merge_shard.h"

#include <utility>

#include "runtime/affinity.h"
#include "runtime/backoff.h"

namespace pldp {
namespace {

size_t SumCapacities(const std::vector<ExchangeLane*>& inputs) {
  size_t total = 0;
  for (const ExchangeLane* lane : inputs) total += lane->queue.capacity();
  return total;
}

}  // namespace

MergeShard::MergeShard(size_t index, std::vector<ExchangeLane*> inputs)
    : index_(index),
      reorder_capacity_(SumCapacities(inputs)),
      inputs_(std::move(inputs)) {
  lanes_.reserve(inputs_.size());
  for (ExchangeLane* lane : inputs_) {
    lanes_.emplace_back(lane);
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
  s.safe_primary = safe_primary();
  return s;
}

size_t MergeShard::reorder_buffered() const {
  size_t depth = 0;
  for (const ExchangeLane* lane : inputs_) depth += lane->queue.ApproxSize();
  return depth;
}

bool MergeShard::ReceiveAvailable() {
  size_t received = 0;
  for (LaneState& lane : lanes_) {
    // Read the frontier BEFORE the lane: the producer pushed every item
    // below it before its release store, so this acquire makes all of them
    // readable below, and the bound is applied only after them.
    // order: acquire pairs with ExchangeEmitter::Broadcast's release store.
    lane.frontier = lane.lane->frontier.load(std::memory_order_acquire);
    const size_t readable = lane.lane->queue.Readable();
#ifdef PLDP_CHECK_NEGATIVE_FRONTIER
    // Seeded mutation for the model checker's negative suite: re-reading
    // the frontier *after* the lane can observe a store whose earlier
    // items that read missed — a later pass then reads an item below the
    // applied bound and trips the PLDP_PROTOCOL_ASSERT in MergePass.
    // atomics-allow: seeded negative-build mutation, not a shipped
    // ordering decision.
    lane.frontier = lane.lane->frontier.load(std::memory_order_acquire);
#endif
    received += readable - lane.readable;
    lane.readable = readable;
    if (readable == 0) lane.ApplyFrontier();
  }
  if (received > 0 && obs_.events_received) {
    obs_.events_received->Inc(received);
  }
  return received > 0;
}

bool MergeShard::MergePass(bool force) {
  size_t released = 0;
  // Chained clock reads: one MonotonicNowNs per released event.
  uint64_t t_prev = obs_.merge_latency_ns ? obs::MonotonicNowNs() : 0;
  for (;;) {
    // Candidate: the globally smallest readable head, read in place.
    LaneState* best = nullptr;
    ExchangeKey key;
    for (LaneState& lane : lanes_) {
      if (lane.readable == 0) continue;
      const ExchangeItem& item = RaceCellRead(lane.lane->queue.Front());
      // The applied frontier promised every later item a key at or above
      // it.
      PLDP_PROTOCOL_ASSERT(lane.bound <= item.key);
      if (best == nullptr || item.key < key) {
        best = &lane;
        key = item.key;
      }
    }
    if (best == nullptr) break;
    if (!force) {
      // Release only when every silent lane provably passed the candidate.
      bool safe = true;
      for (const LaneState& lane : lanes_) {
        if (lane.readable == 0 && lane.bound <= key) {
          safe = false;
          break;
        }
      }
      if (!safe) break;
    }
    SpscQueue<ExchangeItem>& queue = best->lane->queue;
    const RaceCell<ExchangeItem>& slot = queue.Front();
#ifdef PLDP_CHECK_NEGATIVE_POP_EARLY
    // Seeded mutation for the model checker's negative suite: freeing the
    // slot before the engine reads it lets the producer's next lap write
    // the slot under that read — RaceCellRead reports the race.
    queue.PopFront();
#endif
    // The engine's status is always OK today (see Shard::RunLoop); a future
    // failing engine would latch the error for the drain barrier.
    (void)engine_.OnEvent(RaceCellRead(slot).event);
#ifndef PLDP_CHECK_NEGATIVE_POP_EARLY
    // The engine is done with the event: only now may the producer reuse
    // its slot.
    queue.PopFront();
#endif
    // Events bound the future strictly: later keys exceed this one.
    best->bound = ExchangeKey{key.primary, key.sub + 1};
    if (--best->readable == 0) best->ApplyFrontier();
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
    if (obs_.events_merged) obs_.events_merged->Inc(released);
  }
  return released > 0;
}

void MergeShard::PublishSafeBound() {
  uint64_t frontier = kExchangeSeqEnd;
  for (const LaneState& lane : lanes_) {
    const uint64_t lane_frontier =
        lane.readable == 0
            ? lane.bound.primary
            : RaceCellRead(lane.lane->queue.Front()).key.primary;
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
  // What the lane state already covers, refreshed before each park: the
  // lane occupancy the worker last read and the frontier it last loaded.
  // A plain local because the predicate lambda is analyzed as an
  // unannotated function and must not touch the worker-guarded lanes_.
  struct Seen {
    size_t size;
    uint64_t frontier;
  };
  std::vector<Seen> seen(inputs_.size());
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
      // Stop(). Merge progress is driven entirely by lane input, so a
      // column with no new item and no new frontier, and no stop, is
      // genuinely idle — a gated head that is still readable is not a
      // reason to wake, or a gated merge would spin instead of parking.
      // See runtime/backoff.h for the lost-wakeup argument.
      for (size_t i = 0; i < seen.size(); ++i) {
        seen[i] = {lanes_[i].readable, lanes_[i].frontier};
      }
      (void)doorbell_.ParkUnless([this, &seen] {
        for (size_t i = 0; i < seen.size(); ++i) {
          if (inputs_[i]->queue.ApproxSize() > seen[i].size) return true;
          // order: acquire pairs with Broadcast's release store.
          if (inputs_[i]->frontier.load(std::memory_order_acquire) >
              seen[i].frontier) {
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
