// Copyright 2026 The PLDP Authors.
//
// A deadline for liveness tests of the sharded runtime: a hang fails fast
// with a diagnosis instead of stalling until the ctest TIMEOUT.

#ifndef PLDP_TESTS_DRAIN_DEADLINE_H_
#define PLDP_TESTS_DRAIN_DEADLINE_H_

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <thread>

#include "runtime/parallel_engine.h"

namespace pldp {
namespace testing_util {

/// Runs `ingest` and then Drain on a helper thread under a 30 s deadline.
/// A hang fails with every stage-1 shard's counters and every merge
/// shard's safe primary, then exits the binary: the wedged threads can be
/// neither joined nor left running over this test's destroyed locals.
inline void IngestAndDrainWithin30s(
    ParallelStreamingEngine& engine,
    const std::function<Status(ParallelStreamingEngine&)>& ingest) {
  std::promise<Status> done;
  std::future<Status> result = done.get_future();
  std::thread worker([&] {
    Status s = ingest(engine);
    done.set_value(s.ok() ? engine.Drain() : s);
  });
  if (result.wait_for(std::chrono::seconds(30)) ==
      std::future_status::ready) {
    worker.join();
    const Status s = result.get();
    ASSERT_TRUE(s.ok()) << s.ToString();
    return;
  }
  std::string diagnosis = "ingest + Drain hung for 30 s\n";
  for (const ShardStats& s : engine.ShardStatsSnapshot()) {
    diagnosis += "  stage-1 shard " + std::to_string(s.shard_index) +
                 ": processed=" + std::to_string(s.events_processed) +
                 " forwarded=" + std::to_string(s.forwarded) +
                 " queue_waits=" + std::to_string(s.backpressure_waits) +
                 " lane_waits=" +
                 std::to_string(s.exchange_backpressure_waits) + "\n";
  }
  for (const ShardStats& s : engine.CrossShardStatsSnapshot()) {
    diagnosis += "  merge shard " + std::to_string(s.shard_index) +
                 ": merged=" + std::to_string(s.events_processed) +
                 " safe_primary=" + std::to_string(s.safe_primary) + "\n";
  }
  ADD_FAILURE() << diagnosis;
  std::fflush(stdout);
  std::_Exit(1);
}

}  // namespace testing_util
}  // namespace pldp

#endif  // PLDP_TESTS_DRAIN_DEADLINE_H_
