// Copyright 2026 The PLDP Authors.
//
// Tests for the uniform pattern-level PPM — including the paper's central
// data-quality property: event types outside every private pattern are
// never perturbed.

#include "ppm/pattern_level.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "test_util.h"

namespace pldp {
namespace {

using testing_util::AddPattern;
using testing_util::MakeWindow;
using testing_util::MakeWorld;
using testing_util::World;

World TwoPatternWorld() {
  // 6 types; private pattern over {0,1,2}; target over {2,3} (overlaps on 2).
  World w = MakeWorld(6);
  AddPattern(&w, "private", {0, 1, 2}, DetectionMode::kConjunction,
             /*is_private=*/true, /*is_target=*/false);
  AddPattern(&w, "target", {2, 3}, DetectionMode::kConjunction,
             /*is_private=*/false, /*is_target=*/true);
  return w;
}

TEST(UniformPpmTest, InitializeValidatesContext) {
  UniformPatternPpm ppm;
  MechanismContext empty;
  EXPECT_TRUE(ppm.Initialize(empty).IsInvalidArgument());

  World w = MakeWorld(3);  // no private patterns
  EXPECT_TRUE(ppm.Initialize(w.Context()).IsInvalidArgument());

  World w2 = TwoPatternWorld();
  w2.epsilon = -1.0;
  EXPECT_TRUE(ppm.Initialize(w2.Context()).IsInvalidArgument());
}

TEST(UniformPpmTest, InitializeRejectsUnknownPrivateId) {
  World w = TwoPatternWorld();
  w.private_ids.push_back(42);
  UniformPatternPpm ppm;
  EXPECT_TRUE(ppm.Initialize(w.Context()).IsNotFound());
}

TEST(UniformPpmTest, AllocationIsUniformEpsilonOverM) {
  World w = TwoPatternWorld();
  w.epsilon = 3.0;
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  ASSERT_EQ(ppm.private_pattern_count(), 1u);
  const BudgetAllocation& alloc = ppm.allocation(0);
  ASSERT_EQ(alloc.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(alloc[i], 1.0);
  EXPECT_DOUBLE_EQ(ppm.PatternEpsilon(0), 3.0);
}

TEST(UniformPpmTest, RequiresInitializeBeforePublish) {
  UniformPatternPpm ppm;
  Rng rng(1);
  EXPECT_TRUE(ppm.PublishWindow(Window{}, &rng).status()
                  .IsFailedPrecondition());
}

TEST(UniformPpmTest, RejectsNullRng) {
  World w = TwoPatternWorld();
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  EXPECT_TRUE(ppm.PublishWindow(Window{}, nullptr).status()
                  .IsInvalidArgument());
}

TEST(UniformPpmTest, NonPrivateTypesPassThroughUnperturbed) {
  // THE pattern-level property: noise only touches private-pattern types.
  World w = TwoPatternWorld();
  w.epsilon = 0.1;  // heavy noise on private types
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Window win = MakeWindow(static_cast<size_t>(trial), {1, 3, 5});
    PublishedView v = ppm.PublishWindow(win, &rng).value();
    // Types 3, 4, 5 are outside the private pattern: exact truth always.
    EXPECT_TRUE(v.presence[3]);
    EXPECT_FALSE(v.presence[4]);
    EXPECT_TRUE(v.presence[5]);
  }
}

TEST(UniformPpmTest, PrivateTypesAreActuallyPerturbed) {
  World w = TwoPatternWorld();
  w.epsilon = 0.1;  // flip probability near 1/2 per element
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  Rng rng(11);
  int flips = 0;
  const int trials = 500;
  for (int trial = 0; trial < trials; ++trial) {
    Window win = MakeWindow(static_cast<size_t>(trial), {0, 1, 2});
    PublishedView v = ppm.PublishWindow(win, &rng).value();
    for (EventTypeId t : {0u, 1u, 2u}) {
      if (!v.presence[t]) ++flips;
    }
  }
  // ε/m = 0.033 → p ≈ 0.49; expect roughly half of the 1500 bits flipped.
  EXPECT_GT(flips, 500);
  EXPECT_LT(flips, 1000);
}

TEST(UniformPpmTest, HighBudgetPreservesTruthAlmostAlways) {
  World w = TwoPatternWorld();
  w.epsilon = 30.0;  // ε_i = 10 → p ≈ 4.5e-5
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  Rng rng(13);
  int errors = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Window win = MakeWindow(static_cast<size_t>(trial), {0, 2});
    PublishedView v = ppm.PublishWindow(win, &rng).value();
    if (!v.presence[0] || v.presence[1] || !v.presence[2]) ++errors;
  }
  EXPECT_LE(errors, 2);
}

TEST(UniformPpmTest, EmpiricalFlipRateMatchesTheory) {
  // Single-element private pattern: flip probability is exactly
  // 1/(1+e^ε).
  World w = MakeWorld(2);
  AddPattern(&w, "priv", {0}, DetectionMode::kConjunction, true, false);
  AddPattern(&w, "tgt", {1}, DetectionMode::kConjunction, false, true);
  w.epsilon = 1.0;
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  double expected_p = 1.0 / (1.0 + std::exp(1.0));
  Rng rng(17);
  const int trials = 100000;
  int flipped = 0;
  Window win = MakeWindow(0, {0});
  for (int i = 0; i < trials; ++i) {
    PublishedView v = ppm.PublishWindow(win, &rng).value();
    if (!v.presence[0]) ++flipped;
  }
  EXPECT_NEAR(static_cast<double>(flipped) / trials, expected_p, 0.005);
}

TEST(UniformPpmTest, OverlappingPrivatePatternsComposeIndependently) {
  // Two private patterns sharing type 1: the shared bit is perturbed twice,
  // which only adds noise (paper §V-A). Verify the empirical flip rate of
  // the shared type exceeds the single-application rate.
  World w = MakeWorld(4);
  AddPattern(&w, "privA", {0, 1}, DetectionMode::kConjunction, true, false);
  AddPattern(&w, "privB", {1, 2}, DetectionMode::kConjunction, true, false);
  AddPattern(&w, "tgt", {3}, DetectionMode::kConjunction, false, true);
  w.epsilon = 2.0;  // ε_i = 1 per element
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());
  ASSERT_EQ(ppm.private_pattern_count(), 2u);

  double p1 = 1.0 / (1.0 + std::exp(1.0));          // single application
  double p2 = p1 * (1.0 - p1) + (1.0 - p1) * p1;    // two independent
  Rng rng(23);
  const int trials = 100000;
  int flipped_shared = 0;
  int flipped_solo = 0;
  Window win = MakeWindow(0, {0, 1, 2});
  for (int i = 0; i < trials; ++i) {
    PublishedView v = ppm.PublishWindow(win, &rng).value();
    if (!v.presence[1]) ++flipped_shared;
    if (!v.presence[0]) ++flipped_solo;
  }
  EXPECT_NEAR(static_cast<double>(flipped_shared) / trials, p2, 0.006);
  EXPECT_NEAR(static_cast<double>(flipped_solo) / trials, p1, 0.006);
}

TEST(UniformPpmTest, DeterministicGivenSeed) {
  World w = TwoPatternWorld();
  UniformPatternPpm a;
  UniformPatternPpm b;
  ASSERT_TRUE(a.Initialize(w.Context()).ok());
  ASSERT_TRUE(b.Initialize(w.Context()).ok());
  Rng ra(5);
  Rng rb(5);
  for (int i = 0; i < 50; ++i) {
    Window win = MakeWindow(static_cast<size_t>(i), {0, 2, 4});
    EXPECT_EQ(a.PublishWindow(win, &ra).value().presence,
              b.PublishWindow(win, &rb).value().presence);
  }
}

/// The publication path before in-place perturbation, kept as the
/// reference: build the true view, then per private pattern collect the
/// element indicators, perturb them jointly with PatternRandomizedResponse,
/// and write them back in element order (a repeated type's later element
/// wins).
PublishedView CollectPerturbWriteBack(const UniformPatternPpm& ppm,
                                      const World& w, const Window& window,
                                      Rng* rng) {
  PublishedView view = TrueView(window, w.types.size());
  for (size_t k = 0; k < ppm.private_pattern_count(); ++k) {
    const auto& elems = w.patterns.Get(w.private_ids[k]).elements();
    auto rr = PatternRandomizedResponse::FromAllocation(ppm.allocation(k));
    std::vector<bool> indicators(elems.size());
    for (size_t i = 0; i < elems.size(); ++i) {
      indicators[i] = view.presence[elems[i]];
    }
    std::vector<bool> noisy = rr.value().Perturb(indicators, rng).value();
    for (size_t i = 0; i < elems.size(); ++i) {
      view.presence[elems[i]] = noisy[i];
    }
  }
  return view;
}

TEST(UniformPpmTest, InPlacePublicationMatchesCollectPerturbWriteBack) {
  // SEQ(a, a, b) repeats a type; AND(b, c) overlaps it on b; type 4 is in
  // no private pattern. One reused view across all windows.
  World w = MakeWorld(5);
  AddPattern(&w, "priv_seq", {0, 0, 1}, DetectionMode::kSequence, true,
             false);
  AddPattern(&w, "priv_and", {1, 2}, DetectionMode::kConjunction, true,
             false);
  w.epsilon = 1.5;
  UniformPatternPpm ppm;
  ASSERT_TRUE(ppm.Initialize(w.Context()).ok());

  Rng content(99);
  Rng in_place_rng(2024);
  Rng reference_rng(2024);
  PublishedView view;
  size_t differs_from_truth = 0;
  for (size_t i = 0; i < 10000; ++i) {
    Window win;
    win.start = static_cast<Timestamp>(i);
    win.end = win.start + 1;
    for (EventTypeId t = 0; t < 5; ++t) {
      if (content.Bernoulli(0.5)) win.events.emplace_back(t, win.start);
    }
    ASSERT_TRUE(ppm.PublishInto(win, &in_place_rng, &view).ok());
    const PublishedView expected =
        CollectPerturbWriteBack(ppm, w, win, &reference_rng);
    ASSERT_EQ(view.presence, expected.presence) << "window " << i;
    if (view.presence != TrueView(win, 5).presence) ++differs_from_truth;
  }
  // The comparison is not vacuous: most windows are actually perturbed.
  EXPECT_GT(differs_from_truth, 5000u);
}

}  // namespace
}  // namespace pldp
