// Copyright 2026 The PLDP Authors.

#include "runtime/shard.h"

#include <utility>

#include "common/logging.h"
#include "runtime/affinity.h"
#include "runtime/backoff.h"

namespace pldp {
namespace {

// Worker-side pop burst size: large enough to amortize the release store
// and the backoff bookkeeping, small enough to keep the drain latency of a
// partially filled queue negligible.
constexpr size_t kPopBatch = 256;

}  // namespace

Shard::Shard(size_t index, size_t queue_capacity)
    : index_(index), queue_(queue_capacity) {
  queue_.SetWaker(&doorbell_);
  engine_.SetCallback([this](const StreamingDetection& d) {
    // order: relaxed; telemetry only.
    detections_.fetch_add(1, std::memory_order_relaxed);
    if (user_callback_) user_callback_(d);
  });
}

Shard::~Shard() { (void)Stop(); }

StatusOr<size_t> Shard::AddQuery(Pattern pattern, Timestamp window) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::AddQuery must precede Start()");
  }
  return engine_.AddQuery(std::move(pattern), window);
}

Status Shard::SetEventSink(std::unique_ptr<ShardEventSink> sink) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::SetEventSink must precede Start()");
  }
  sink_ = std::move(sink);
  if (sink_ != nullptr) {
    // Emitters wired in before the sink existed still reach it.
    MutexLock lock(reg_mu_);
    for (auto& emitter : emitters_) {
      sink_->AttachExchangeEmitter(emitter.get());
    }
  }
  return Status::OK();
}

Status Shard::SetInstruments(const obs::ShardInstruments& instruments) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::SetInstruments must precede Start()");
  }
  obs_ = instruments;
  return Status::OK();
}

Status Shard::SetDetectionCallback(DetectionCallback callback) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::SetDetectionCallback must precede Start()");
  }
  user_callback_ = std::move(callback);
  return Status::OK();
}

Status Shard::AddExchange(std::unique_ptr<ExchangeEmitter> emitter) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::AddExchange must precede Start()");
  }
  if (emitter == nullptr) {
    return Status::InvalidArgument("emitter must not be null");
  }
  // The lock makes a late AddExchange well-defined against a concurrent
  // stats()/exchange_count() scrape: push_back can reallocate the vector
  // under an unlocked reader (the bug -Wthread-safety pinned down once
  // the list was annotated; regression: runtime_shard_race_test).
  MutexLock lock(reg_mu_);
  emitters_.push_back(std::move(emitter));
  if (sink_ != nullptr) sink_->AttachExchangeEmitter(emitters_.back().get());
  return Status::OK();
}

std::vector<ExchangeEmitter*> Shard::SnapshotEmitters() const {
  MutexLock lock(reg_mu_);
  std::vector<ExchangeEmitter*> emitters;
  emitters.reserve(emitters_.size());
  for (const auto& emitter : emitters_) emitters.push_back(emitter.get());
  return emitters;
}

Status Shard::Start() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard already running");
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

Status Shard::PushStampedN(StampedEvent* events, size_t count,
                           size_t* accepted) {
  if (accepted != nullptr) *accepted = 0;
  // order: relaxed; advisory guard — a racing Stop is caught by the
  // fail-fast stop_requested_ check inside the push loop.
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard not running");
  }
  Backoff backoff;
  bool waited = false;
  size_t done = 0;
  while (done < count) {
    // Fail fast instead of spinning forever when the worker is gone (a
    // Push racing Stop(), or a producer outliving the shard's shutdown).
    // Events enqueued before the cutoff still count as pushed; Stop()
    // processes any queue leftovers after joining the worker, so Drain
    // stays consistent even if the worker missed them.
    // order: relaxed; fail-fast hint — Stop()'s post-join leftover pass
    // makes the cutoff exact regardless of what this load observes.
    if (stop_requested_.load(std::memory_order_relaxed)) {
      // order: relaxed; Drain reads pushed_ from the producer thread.
      if (done > 0) pushed_.fetch_add(done, std::memory_order_relaxed);
      if (accepted != nullptr) *accepted = done;
      PLDP_LOG(Warning) << "shard " << index_ << ": push after stop, "
                        << (count - done) << " of " << count
                        << " events rejected";
      return Status::FailedPrecondition("push after shard stop");
    }
    const size_t n = queue_.TryPushN(events + done, count - done);
    if (n == 0) {
      waited = true;
      backoff.Wait();
    } else {
      done += n;
      backoff.Reset();
    }
  }
  if (waited) {
    // order: relaxed; telemetry only.
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.backpressure_waits) obs_.backpressure_waits->Inc();
  }
  // order: relaxed; Drain reads it from the producer thread itself (or
  // under an external happens-before), and the queue push above already
  // published the events with release.
  pushed_.fetch_add(count, std::memory_order_relaxed);
  if (accepted != nullptr) *accepted = count;
  return Status::OK();
}

size_t Shard::TryPushStampedN(StampedEvent* events, size_t count) {
  // order: relaxed on both flags; advisory fail-fast guards (see
  // PushStampedN).
  if (!running_.load(std::memory_order_relaxed) ||
      stop_requested_.load(std::memory_order_relaxed)) {
    return 0;
  }
  const size_t n = queue_.TryPushN(events, count);
  // order: relaxed; same contract as PushStampedN's pushed_ update.
  if (n > 0) pushed_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

Status Shard::Drain() {
  // order: relaxed; advisory guard.
  if (!running_.load(std::memory_order_relaxed)) return Status::OK();
  // order: relaxed; best-effort snapshot of the push count (see the
  // threading contract in the header).
  const uint64_t target = pushed_.load(std::memory_order_relaxed);
  Backoff backoff;
  // order: acquire pairs with the worker's release — once the count
  // covers the target, the engine/sink effects are visible too.
  while (processed_.load(std::memory_order_acquire) < target) {
    backoff.Wait();
  }
  return Status::OK();
}

StatusOr<uint64_t> Shard::PostCommand(uint32_t kind, uint64_t payload) {
  // order: relaxed; advisory guard (WaitCommandAck fails fast on stop).
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard not running");
  }
  // order: relaxed on both; the generation bump below publishes them.
  cmd_payload_.store(payload, std::memory_order_relaxed);
  cmd_kind_.store(kind, std::memory_order_relaxed);
  // order: release publishes payload/kind to the worker's acquire of
  // cmd_gen_.
  const uint64_t token = cmd_gen_.fetch_add(1, std::memory_order_release) + 1;
  doorbell_.Ring();
  return token;
}

Status Shard::WaitCommandAck(uint64_t token) {
  Backoff backoff;
  // order: acquire pairs with the worker's release ack — command side
  // effects (frontier stores, finish emissions) are visible once acked.
  while (cmd_ack_.load(std::memory_order_acquire) < token) {
    // order: relaxed; fail-fast hint only.
    if (stop_requested_.load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition("shard stopping before command ran");
    }
    backoff.Wait();
  }
  return Status::OK();
}

Status Shard::RequestFlushWatermark(uint64_t bound) {
  PLDP_ASSIGN_OR_RETURN(uint64_t token, PostCommand(kCmdFlushWatermark, bound));
  return WaitCommandAck(token);
}

StatusOr<uint64_t> Shard::PostFinish(uint64_t finish_seq) {
  return PostCommand(kCmdFinish, finish_seq);
}

Status Shard::Stop() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (!running_.load(std::memory_order_relaxed)) return Status::OK();
  Status drained = Drain();
  // order: release so work published before the stop request is visible
  // to the worker that observes it (acquire in the run loop).
  stop_requested_.store(true, std::memory_order_release);
  doorbell_.Ring();  // A parked worker must observe the stop flag.
  if (worker_.joinable()) worker_.join();
  // A push racing the stop flag can land an event after the worker's final
  // empty-queue check. The join above makes this thread the sole owner —
  // the worker-role handoff — so absorb any leftovers here: no pushed
  // event is ever silently dropped, and a concurrent Drain() waiting on
  // processed_ is released.
  worker_role_.Acquire();
  const std::vector<ExchangeEmitter*> emitters = SnapshotEmitters();
  StampedEvent leftover;
  while (queue_.TryPop(leftover)) {
    ProcessOne(leftover, emitters);
    if (obs_.events) obs_.events->Inc();
    if (obs_.batch_size) obs_.batch_size->Record(1);
    if (obs_.process_latency_ns) obs_.process_latency_ns->Record(0);
    // order: release; releases a concurrent Drain (see header contract).
    processed_.fetch_add(1, std::memory_order_release);
  }
  worker_role_.Release();
  // order: relaxed; advisory flag for running() observers.
  running_.store(false, std::memory_order_relaxed);
  return drained;
}

ShardStats Shard::stats() const {
  ShardStats s;
  s.shard_index = index_;
  // order: acquire pairs with the worker's release publication.
  s.events_processed =
      static_cast<size_t>(processed_.load(std::memory_order_acquire));
  // order: relaxed; telemetry only (both counters below too).
  s.detections =
      static_cast<size_t>(detections_.load(std::memory_order_relaxed));
  s.backpressure_waits = static_cast<size_t>(
      backpressure_waits_.load(std::memory_order_relaxed));
  s.parks = static_cast<size_t>(doorbell_.parks());
  s.wakes = static_cast<size_t>(doorbell_.wakes());
  MutexLock lock(reg_mu_);
  for (const auto& emitter : emitters_) {
    const ExchangeEmitterStats e = emitter->stats();
    s.forwarded += e.forwarded;
    s.exchange_backpressure_waits += e.backpressure_waits;
  }
  return s;
}

void Shard::ExecuteCommand(const std::vector<ExchangeEmitter*>& emitters) {
  // order: acquire pairs with PostCommand's release bump, covering the
  // payload/kind stores before it.
  const uint64_t gen = cmd_gen_.load(std::memory_order_acquire);
  // order: relaxed; this thread is cmd_ack_'s only writer.
  if (gen == cmd_ack_.load(std::memory_order_relaxed)) return;
  // order: relaxed on both; published by the acquired generation bump.
  const uint32_t kind = cmd_kind_.load(std::memory_order_relaxed);
  const uint64_t payload = cmd_payload_.load(std::memory_order_relaxed);
  switch (kind) {
    case kCmdFlushWatermark:
      // Frontiers only rise, so a stale request (issued before newer idle
      // frontiers) is free.
      for (ExchangeEmitter* emitter : emitters) emitter->Broadcast(payload);
      break;
    case kCmdFinish:
      // End-of-stream: finalize-time sink output first (stamped at or above
      // the finish bound), then close every row for good.
      if (sink_ != nullptr) sink_->OnShardFinish(payload);
      for (ExchangeEmitter* emitter : emitters) {
        emitter->Broadcast(kExchangeSeqEnd);
      }
      break;
    default:
      break;
  }
  // order: release publishes the command's side effects to
  // WaitCommandAck's acquire.
  cmd_ack_.store(gen, std::memory_order_release);
}

void Shard::ProcessOne(const StampedEvent& stamped,
                       const std::vector<ExchangeEmitter*>& emitters) {
  // One exchange trigger scope per event and per lane-group: everything
  // emitted while processing it — the raw forward or the sink's output —
  // is stamped (seq, 0), (seq, 1), ... independently on every group's row.
  for (ExchangeEmitter* emitter : emitters) {
    emitter->BeginTrigger(stamped.seq);
  }
  // The engine's status is always OK today (OnEvent cannot fail); if
  // a future engine surfaces errors we will carry them to Drain().
  (void)engine_.OnEvent(stamped.event);
  if (sink_ != nullptr) {
    // A sink owns this shard's downstream output: raw events never cross.
    sink_->OnShardEvent(stamped.event);
  } else {
    for (ExchangeEmitter* emitter : emitters) {
      (void)emitter->Emit(stamped.event);
    }
  }
  idle_bound_ = stamped.seq + 1;
}

void Shard::RunLoop() {
  Backoff backoff;
  std::vector<StampedEvent> batch(kPopBatch);
  // One snapshot for the thread's lifetime: AddExchange refuses once the
  // shard runs, so the list is frozen and the per-event path stays off
  // the registration mutex.
  const std::vector<ExchangeEmitter*> emitters = SnapshotEmitters();
  // Sequence bound of the last idle frontier this loop published — the
  // park predicate watches the producer floor against it.
  uint64_t last_idle_bound = 0;
  for (;;) {
    const size_t n = queue_.TryPopN(batch.data(), batch.size());
    if (n > 0) {
      backoff.Reset();
      if (obs_.batch_size) obs_.batch_size->Record(n);
      // Chained clock reads: one MonotonicNowNs per event, each delta is
      // that event's full processing latency (engine + sink + exchange).
      uint64_t t_prev = obs_.process_latency_ns ? obs::MonotonicNowNs() : 0;
      for (size_t i = 0; i < n; ++i) {
        ProcessOne(batch[i], emitters);
        if (obs_.process_latency_ns) {
          const uint64_t t_now = obs::MonotonicNowNs();
          obs_.process_latency_ns->Record(t_now - t_prev);
          t_prev = t_now;
        }
      }
      if (obs_.events) obs_.events->Inc(n);
      // One release store per burst: the publication point Drain acquires.
      // order: release (see comment above).
      processed_.fetch_add(n, std::memory_order_release);
      // Commands are handled on burst boundaries too, so a saturating
      // producer cannot starve a drain barrier.
      ExecuteCommand(emitters);
      continue;
    }
    ExecuteCommand(emitters);
    // order: acquire pairs with Stop()'s release store.
    if (stop_requested_.load(std::memory_order_acquire) &&
        queue_.ApproxEmpty()) {
      return;
    }
    // Idle: let downstream merges progress past everything we processed —
    // or, when the producer vouches that every event below its floor has
    // been pushed somewhere and our queue is empty, past the global floor
    // (a shard starved by routing skew must not silence its lanes). A
    // bound the frontier already covers is a no-op, so the steady idle
    // loop stays free.
    if (!emitters.empty()) {
      uint64_t bound = idle_bound_;
      // order: acquire pairs with NoteProducerFloor's release (the empty
      // check below relies on the covered pushes being visible).
      const uint64_t floor =
          producer_floor_.load(std::memory_order_acquire);
      // The floor's pushes happened before its release store, so an empty
      // queue observed after the acquire means we processed all of ours.
      if (floor > bound && queue_.ApproxEmpty()) bound = floor;
      if (bound > 0) {
        for (ExchangeEmitter* emitter : emitters) emitter->Broadcast(bound);
        last_idle_bound = bound;
      }
    }
    if (backoff.ShouldPark()) {
      // Park until work arrives. The predicate reads only atomics (queue
      // indices, command generation, stop flag, producer floor) — never
      // worker-guarded state — and covers every wake source: a push rings
      // via the queue's waker, PostCommand / Stop / NoteProducerFloor
      // ring directly. See runtime/backoff.h for the lost-wakeup
      // argument; `watch_floor` wakes the loop when there is new idle
      // frontier progress to publish.
      const bool watch_floor = !emitters.empty();
      const uint64_t idle_bound = last_idle_bound;
      (void)doorbell_.ParkUnless([this, watch_floor, idle_bound] {
        if (!queue_.ApproxEmpty()) return true;
        // order: acquire/relaxed, same pairing as ExecuteCommand.
        if (cmd_gen_.load(std::memory_order_acquire) !=
            cmd_ack_.load(std::memory_order_relaxed)) {
          return true;
        }
        // order: acquire pairs with Stop()'s release store.
        if (stop_requested_.load(std::memory_order_acquire)) return true;
        // order: acquire pairs with NoteProducerFloor's release.
        return watch_floor &&
               producer_floor_.load(std::memory_order_acquire) > idle_bound;
      });
      // Woken (or preempted by work) — spin afresh before parking again.
      backoff.Reset();
      continue;
    }
    backoff.Wait();
  }
}

}  // namespace pldp
