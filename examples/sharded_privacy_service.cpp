// Copyright 2026 The PLDP Authors.
//
// The paper's full service phase (Fig. 2), declared through the pipeline
// API: a fleet of smart homes (data subjects) streams events into the
// trusted CEP middleware. Declaring private patterns + private queries +
// a mechanism makes the planner compile the sharded private lane: each
// subject is routed to a worker shard, windowed shard-locally, protected
// through a per-subject pattern-level mechanism (uniform PPM, budget ε),
// and the registered target queries are answered from protected views
// only — raw events never leave the middleware.
//
// Determinism: per-subject Rngs derive from (seed, subject id), so the
// protected answers are identical at any shard count; run with different
// WithShards budgets and diff the output to see for yourself.

#include <cstdio>

#include "core/pldp.h"
#include "example_util.h"

namespace {

pldp::Status Run() {
  constexpr size_t kHomes = 500;
  constexpr size_t kTicks = 400;
  constexpr pldp::Timestamp kWindow = 20;
  constexpr double kEpsilon = 2.0;

  // --- Setup phase: subjects declare a private pattern, one consumer
  // registers target queries, the middleware grants ε. All declarative;
  // the planner validates and compiles at Build().
  pldp::PipelineBuilder builder;
  const pldp::EventTypeId door = builder.InternEventType("front_door");
  const pldp::EventTypeId motion = builder.InternEventType("hall_motion");
  const pldp::EventTypeId kettle = builder.InternEventType("kettle_on");
  const pldp::EventTypeId meds = builder.InternEventType("med_cabinet");

  // The residents consider "medication taken at home" private.
  builder.AddPrivatePattern(
      pldp::Pattern::Create("meds_at_home", {door, meds},
                            pldp::DetectionMode::kConjunction));

  // A wellness service asks two continuous queries per window.
  pldp::PrivateQueryHandle came_home = builder.AddPrivateQuery(
      "came_home",
      pldp::Pattern::Create("came_home", {door, motion, kettle},
                            pldp::DetectionMode::kConjunction));
  pldp::PrivateQueryHandle meds_taken = builder.AddPrivateQuery(
      "meds_taken", pldp::Pattern::Create("meds_taken", {door, meds},
                                          pldp::DetectionMode::kConjunction));

  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<pldp::Pipeline> pipeline,
                        builder.WithShards(0)  // auto: one per hardware thread
                            .WithSeed(2026)
                            .WithPrivacyWindow(kWindow)
                            .WithMechanism("uniform")
                            .WithEpsilon(kEpsilon)
                            .Build());
  std::printf("planned topology:\n%s\n", pipeline->plan().Describe().c_str());

  // --- Service phase: synthesize the merged arrival stream and replay it
  // in per-tick batches (the batched ingest path).
  pldp::Rng gen(7);
  pldp::EventStream arrivals;
  for (pldp::Timestamp t = 0; t < static_cast<pldp::Timestamp>(kTicks); ++t) {
    for (pldp::StreamId home = 0; home < kHomes; ++home) {
      if (!gen.Bernoulli(0.15)) continue;
      const auto which =
          static_cast<pldp::EventTypeId>(gen.UniformUint64(4));
      arrivals.AppendUnchecked(pldp::Event(which, t, home));
    }
  }

  pldp::StreamReplayer replayer;
  replayer.Subscribe(pipeline.get());
  PLDP_RETURN_IF_ERROR(
      replayer.Run(arrivals, pldp::ReplayMode::kBatchPerTick));

  // --- Consumer-side view: protected answers only, reachable only behind
  // the Finish() barrier via the typed handles.
  PLDP_ASSIGN_OR_RETURN(pldp::FinishedPipeline finished, pipeline->Finish());
  const std::vector<pldp::StreamId> subjects = finished.Subjects();
  size_t came_home_positives = 0;
  size_t meds_positives = 0;
  for (pldp::StreamId subject : subjects) {
    PLDP_ASSIGN_OR_RETURN(pldp::AnswerSeries a,
                          finished.AnswersOf(came_home, subject));
    came_home_positives += a.PositiveCount();
    PLDP_ASSIGN_OR_RETURN(pldp::AnswerSeries b,
                          finished.AnswersOf(meds_taken, subject));
    meds_positives += b.PositiveCount();
  }

  std::printf(
      "ingested %zu events from %zu homes across %zu shards\n"
      "published %zu protected windows (ε=%.1f per private pattern)\n"
      "'came_home' positive in %zu windows, 'meds_taken' in %zu\n",
      finished.events_processed(), subjects.size(),
      pipeline->plan().shard_count, finished.total_windows(), kEpsilon,
      came_home_positives, meds_positives);

  std::printf("\nper-shard load:\n");
  for (const pldp::ShardStats& s : pipeline->ShardStatsSnapshot()) {
    std::printf("  shard %zu: %zu events\n", s.shard_index,
                s.events_processed);
    // Backpressure depends on thread scheduling, so it goes to stderr and
    // stdout stays byte-identical from run to run.
    std::fprintf(stderr, "  shard %zu: %zu backpressure waits\n",
                 s.shard_index, s.backpressure_waits);
  }
  return pipeline->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  if (example_util::WantsHelp(argc, argv)) {
    example_util::PrintUsage(
        argv[0],
        "The paper's full service phase, sharded: private patterns,\n"
        "private queries, and a mechanism declared on the builder; each\n"
        "subject is windowed and protected shard-locally, and queries are\n"
        "answered from protected views only.",
        nullptr, 0);
    return 0;
  }
  pldp::Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
