// Copyright 2026 The PLDP Authors.
//
// Setup runs once per publisher, not once per data subject: a
// SubjectViewPublisher Initializes one prototype from its factory and
// gives every subject a Clone(). These tests count the factory and
// MakeAllocation calls that plan costs, and pin the Clone contract for
// every built-in mechanism: a clone publishes exactly what a fresh
// factory() + Initialize instance publishes with the same Rng, whatever
// the prototype or a sibling clone did before.

#include "ppm/subject_publisher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_private_engine.h"
#include "ppm/factory.h"
#include "ppm/pattern_level.h"
#include "test_util.h"

namespace pldp {
namespace {

using testing_util::AddPattern;
using testing_util::MakeWorld;
using testing_util::World;

struct SetupCounts {
  std::atomic<int> factory_calls{0};
  std::atomic<int> allocations{0};
};

/// The uniform PPM, counting its budget-split calls.
class CountingUniformPpm final : public UniformPatternPpm {
 public:
  explicit CountingUniformPpm(SetupCounts* counts) : counts_(counts) {}

  std::unique_ptr<PrivacyMechanism> Clone() const override {
    return std::make_unique<CountingUniformPpm>(*this);
  }

 protected:
  StatusOr<BudgetAllocation> MakeAllocation(
      const Pattern& pattern, const MechanismContext& context) override {
    counts_->allocations.fetch_add(1, std::memory_order_relaxed);
    return UniformPatternPpm::MakeAllocation(pattern, context);
  }

 private:
  SetupCounts* counts_;
};

MechanismFactory CountingFactory(SetupCounts* counts) {
  return [counts]() -> StatusOr<std::unique_ptr<PrivacyMechanism>> {
    counts->factory_calls.fetch_add(1, std::memory_order_relaxed);
    return std::unique_ptr<PrivacyMechanism>(new CountingUniformPpm(counts));
  };
}

/// 6 types; private {0,1,2} and SEQ(2,3,2); targets {0,4} and {3}.
World PublisherWorld() {
  World w = MakeWorld(6);
  AddPattern(&w, "priv_and", {0, 1, 2}, DetectionMode::kConjunction, true,
             false);
  AddPattern(&w, "priv_seq", {2, 3, 2}, DetectionMode::kSequence, true,
             false);
  AddPattern(&w, "tgt_a", {0, 4}, DetectionMode::kConjunction, false, true);
  AddPattern(&w, "tgt_b", {3}, DetectionMode::kConjunction, false, true);
  Rng rng(31);
  for (size_t i = 0; i < 40; ++i) {
    Window win;
    win.start = static_cast<Timestamp>(i);
    win.end = win.start + 1;
    for (EventTypeId t = 0; t < 6; ++t) {
      if (rng.Bernoulli(0.5)) win.events.emplace_back(t, win.start);
    }
    w.history.push_back(std::move(win));
  }
  return w;
}

TEST(SubjectPublisherTest, InitializesOncePerPublisher) {
  const World w = PublisherWorld();
  SetupCounts counts;
  SubjectPublisherOptions options;
  options.context = w.Context();
  options.factory = CountingFactory(&counts);
  for (size_t i = 0; i < w.target_ids.size(); ++i) {
    options.queries.push_back(
        BinaryQuery{static_cast<QueryId>(i), "q", w.target_ids[i]});
  }
  options.window_size = 4;
  options.seed = 5;
  SubjectViewPublisher publisher(std::move(options));
  EXPECT_EQ(counts.factory_calls.load(), 1);
  EXPECT_EQ(counts.allocations.load(), 2);

  constexpr size_t kSubjects = 1000;
  for (Timestamp ts = 0; ts < 12; ++ts) {
    for (size_t s = 0; s < kSubjects; ++s) {
      publisher.Absorb(Event(static_cast<EventTypeId>((s + ts) % 6), ts,
                             static_cast<StreamId>(s)));
    }
  }
  ASSERT_TRUE(publisher.Finalize().ok());
  EXPECT_EQ(publisher.subject_count(), kSubjects);
  EXPECT_EQ(publisher.total_windows(), kSubjects * 3);
  EXPECT_EQ(counts.factory_calls.load(), 1);
  EXPECT_EQ(counts.allocations.load(), 2);
}

TEST(SubjectPublisherTest, PrototypeFailureLatches) {
  const World w = PublisherWorld();
  SubjectPublisherOptions options;
  options.context = w.Context();
  options.context.epsilon = -1.0;  // Initialize refuses it
  options.factory = NamedMechanismFactory("uniform");
  options.window_size = 4;
  SubjectViewPublisher publisher(std::move(options));
  publisher.Absorb(Event(0, 0, /*stream=*/1));
  EXPECT_EQ(publisher.subject_count(), 0u);
  EXPECT_TRUE(publisher.Finalize().IsInvalidArgument());
}

TEST(SubjectPublisherTest, ParallelEngineInitializesOncePerShard) {
  constexpr size_t kShards = 3;
  SetupCounts counts;
  ParallelPrivateOptions options;
  options.shard_count = kShards;
  options.window_size = 4;
  ParallelPrivateEngine engine(options);
  for (int t = 0; t < 6; ++t) engine.InternEventType("t" + std::to_string(t));
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(
                      Pattern::Create("priv_and", {0, 1, 2},
                                      DetectionMode::kConjunction)
                          .value())
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(
                      Pattern::Create("priv_seq", {2, 3, 2},
                                      DetectionMode::kSequence)
                          .value())
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTargetQuery(
                      "q", Pattern::Create("tgt", {0, 4},
                                           DetectionMode::kConjunction)
                               .value())
                  .ok());
  ASSERT_TRUE(engine.Activate(CountingFactory(&counts), 1.0).ok());

  constexpr size_t kSubjects = 600;
  for (Timestamp ts = 0; ts < 8; ++ts) {
    for (size_t s = 0; s < kSubjects; ++s) {
      ASSERT_TRUE(engine
                      .OnEvent(Event(static_cast<EventTypeId>(s % 6), ts,
                                     static_cast<StreamId>(s)))
                      .ok());
    }
  }
  ASSERT_TRUE(engine.Finish().ok());
  EXPECT_EQ(engine.SubjectIds().size(), kSubjects);
  // One prototype per shard's publisher, plus Activate's validation probe.
  EXPECT_LE(counts.factory_calls.load(), static_cast<int>(kShards + 1));
  EXPECT_LE(counts.allocations.load(), static_cast<int>(2 * (kShards + 1)));
  ASSERT_TRUE(engine.Stop().ok());
}

std::vector<Window> RandomWindows(size_t n, Timestamp base, uint64_t seed) {
  Rng rng(seed);
  std::vector<Window> windows;
  for (size_t i = 0; i < n; ++i) {
    Window win;
    win.start = base + static_cast<Timestamp>(i);
    win.end = win.start + 1;
    for (EventTypeId t = 0; t < 6; ++t) {
      const size_t copies = rng.UniformUint64(3);
      for (size_t c = 0; c < copies; ++c) {
        win.events.emplace_back(t, win.start);
      }
    }
    windows.push_back(std::move(win));
  }
  return windows;
}

std::unique_ptr<PrivacyMechanism> FreshInstance(const std::string& name,
                                                const World& w) {
  auto mechanism = MakeMechanism(name).value();
  EXPECT_TRUE(mechanism->Initialize(w.Context()).ok()) << name;
  return mechanism;
}

TEST(SubjectPublisherTest, CloneMatchesFreshInstanceForEveryMechanism) {
  const World w = PublisherWorld();
  const std::vector<Window> stream_a = RandomWindows(80, 0, 41);
  const std::vector<Window> stream_b = RandomWindows(80, 0, 43);
  std::vector<std::string> names = AllMechanismNames();
  names.push_back("passthrough");
  for (const std::string& name : names) {
    std::unique_ptr<PrivacyMechanism> prototype = FreshInstance(name, w);
    // A prototype that has already published: its inter-window state
    // (w-event and landmark last releases, BA's bank) must not leak into
    // clones.
    Rng warm(7);
    for (const Window& win : RandomWindows(25, 0, 47)) {
      ASSERT_TRUE(prototype->PublishWindow(win, &warm).ok()) << name;
    }
    std::unique_ptr<PrivacyMechanism> clone_a = prototype->Clone();
    std::unique_ptr<PrivacyMechanism> clone_b = prototype->Clone();
    ASSERT_NE(clone_a, nullptr) << name;
    EXPECT_EQ(clone_a->name(), name);
    std::unique_ptr<PrivacyMechanism> fresh_a = FreshInstance(name, w);
    std::unique_ptr<PrivacyMechanism> fresh_b = FreshInstance(name, w);

    // Interleave the two clones to show they are independent.
    Rng ra(101), rfa(101), rb(202), rfb(202);
    PublishedView view_a, view_b;
    for (size_t i = 0; i < stream_a.size(); ++i) {
      ASSERT_TRUE(clone_a->PublishInto(stream_a[i], &ra, &view_a).ok());
      ASSERT_TRUE(clone_b->PublishInto(stream_b[i], &rb, &view_b).ok());
      EXPECT_EQ(view_a.presence,
                fresh_a->PublishWindow(stream_a[i], &rfa).value().presence)
          << name << " window " << i;
      EXPECT_EQ(view_b.presence,
                fresh_b->PublishWindow(stream_b[i], &rfb).value().presence)
          << name << " window " << i;
    }
  }
}

}  // namespace
}  // namespace pldp
