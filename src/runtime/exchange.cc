// Copyright 2026 The PLDP Authors.

#include "runtime/exchange.h"

#include <utility>

#include "runtime/backoff.h"

namespace pldp {

ExchangeFabric::ExchangeFabric(size_t producers, size_t consumers,
                               size_t lane_capacity)
    : producers_(producers < 1 ? 1 : producers),
      consumers_(consumers < 1 ? 1 : consumers) {
  frontiers_.reserve(producers_);
  lanes_.reserve(producers_ * consumers_);
  for (size_t p = 0; p < producers_; ++p) {
    frontiers_.push_back(std::make_unique<Atomic<uint64_t>>(0));
    for (size_t c = 0; c < consumers_; ++c) {
      lanes_.push_back(
          std::make_unique<ExchangeLane>(lane_capacity, *frontiers_.back()));
    }
  }
}

std::vector<ExchangeLane*> ExchangeFabric::Row(size_t producer) {
  std::vector<ExchangeLane*> row;
  row.reserve(consumers_);
  for (size_t c = 0; c < consumers_; ++c) row.push_back(&lane(producer, c));
  return row;
}

std::vector<ExchangeLane*> ExchangeFabric::Column(size_t consumer) {
  std::vector<ExchangeLane*> column;
  column.reserve(producers_);
  for (size_t p = 0; p < producers_; ++p) {
    column.push_back(&lane(p, consumer));
  }
  return column;
}

ExchangeEmitter::ExchangeEmitter(std::vector<ExchangeLane*> row,
                                 ShardKeyFn key_fn, ExchangeFabric* fabric)
    : row_(std::move(row)),
      frontier_(row_.front()->frontier),
      router_(row_.size(), std::move(key_fn)),
      fabric_(fabric) {}

Status ExchangeEmitter::PushSlow(ExchangeLane& lane, ExchangeItem& item) {
  // One count per wait episode.
  // order: relaxed; telemetry only.
  backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.backpressure_waits) obs_.backpressure_waits->Inc();
  // Publish first: every future item of this shard, on any of its rows,
  // has primary >= the current trigger — including the one we are about to
  // push. That lets every merge release what sits below it even though
  // this shard has gone quiet, which is what frees the slot we wait for.
  // Raising only this row would let two shards blocked in different
  // lane-groups each gate the other group's merge.
  for (ExchangeEmitter* row : shard_rows_) row->Broadcast(trigger_);
  Backoff backoff;
  while (!lane.queue.TryPush(std::move(item))) {
    if (fabric_->aborted()) {
      return Status::FailedPrecondition("exchange fabric aborted");
    }
    backoff.Wait();
  }
  return Status::OK();
}

Status ExchangeEmitter::Emit(const Event& event) {
  driver_role_.Assert();
  ExchangeItem item;
  item.key = ExchangeKey{trigger_, sub_next_++};
  item.event = event;
  ExchangeLane& lane = *row_[router_.ShardOf(item.event)];
  if (!lane.queue.TryPush(std::move(item))) {
    PLDP_RETURN_IF_ERROR(PushSlow(lane, item));
  }
  // order: relaxed; telemetry only.
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.forwarded) obs_.forwarded->Inc();
  return Status::OK();
}

void ExchangeEmitter::Broadcast(uint64_t bound) {
  driver_role_.Assert();
  // order: relaxed; this thread is the frontier's only writer, so it always
  // reads its own last store.
  if (bound <= frontier_.load(std::memory_order_relaxed)) return;
  // order: release pairs with the merge's acquire load, which it takes
  // before draining the lane: every item pushed before this store is
  // drained ahead of the bound it raises.
  frontier_.store(bound, std::memory_order_release);
  for (ExchangeLane* lane : row_) lane->queue.Wake();
  if (obs_.watermarks) obs_.watermarks->Inc();
}

ExchangeEmitterStats ExchangeEmitter::stats() const {
  ExchangeEmitterStats s;
  // order: relaxed on both; independent monotonic telemetry counters.
  s.forwarded =
      static_cast<size_t>(forwarded_.load(std::memory_order_relaxed));
  // order: relaxed; see above.
  s.backpressure_waits = static_cast<size_t>(
      backpressure_waits_.load(std::memory_order_relaxed));
  return s;
}

}  // namespace pldp
