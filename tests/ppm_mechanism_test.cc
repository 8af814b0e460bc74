// Copyright 2026 The PLDP Authors.
//
// Tests for the mechanism interface plumbing: true views, the binary-query
// reduction on published views, and the passthrough mechanism.

#include "ppm/mechanism.h"

#include <gtest/gtest.h>

#include "ppm/factory.h"
#include "test_util.h"

namespace pldp {
namespace {

using testing_util::AddPattern;
using testing_util::MakeWindow;
using testing_util::MakeWorld;

TEST(TrueViewTest, MarksPresentTypes) {
  Window w = MakeWindow(0, {1, 3});
  PublishedView v = TrueView(w, 5);
  EXPECT_EQ(v.presence,
            (std::vector<bool>{false, true, false, true, false}));
}

TEST(TrueViewTest, IgnoresOutOfRangeTypes) {
  Window w = MakeWindow(0, {7});
  PublishedView v = TrueView(w, 3);
  EXPECT_EQ(v.presence, (std::vector<bool>{false, false, false}));
}

TEST(PatternDetectedInViewTest, ConjunctionNeedsAllTypes) {
  Pattern p = Pattern::Create("p", {0, 2}, DetectionMode::kConjunction)
                  .value();
  PublishedView v;
  v.presence = {true, false, true};
  EXPECT_TRUE(PatternDetectedInView(v, p));
  v.presence[2] = false;
  EXPECT_FALSE(PatternDetectedInView(v, p));
}

TEST(PatternDetectedInViewTest, SequenceReducesToConjunction) {
  // Presence bits carry no order: SEQ degenerates to AND in the view.
  Pattern p = Pattern::Create("p", {2, 0}, DetectionMode::kSequence).value();
  PublishedView v;
  v.presence = {true, false, true};
  EXPECT_TRUE(PatternDetectedInView(v, p));
}

TEST(PatternDetectedInViewTest, DisjunctionNeedsAnyType) {
  Pattern p = Pattern::Create("p", {0, 1}, DetectionMode::kDisjunction)
                  .value();
  PublishedView v;
  v.presence = {false, true, false};
  EXPECT_TRUE(PatternDetectedInView(v, p));
  v.presence[1] = false;
  EXPECT_FALSE(PatternDetectedInView(v, p));
}

TEST(PatternDetectedInViewTest, OutOfRangeTypeIsAbsent) {
  Pattern p = Pattern::Create("p", {9}, DetectionMode::kConjunction).value();
  PublishedView v;
  v.presence = {true};
  EXPECT_FALSE(PatternDetectedInView(v, p));
}

TEST(PassthroughTest, PublishesTruthExactly) {
  auto world = MakeWorld(4);
  PassthroughMechanism mech;
  ASSERT_TRUE(mech.Initialize(world.Context()).ok());
  Window w = MakeWindow(0, {0, 2});
  Rng rng(1);
  PublishedView v = mech.PublishWindow(w, &rng).value();
  EXPECT_EQ(v.presence, TrueView(w, 4).presence);
}

TEST(PassthroughTest, RequiresInitialize) {
  PassthroughMechanism mech;
  Rng rng(1);
  EXPECT_TRUE(mech.PublishWindow(Window{}, &rng).status()
                  .IsFailedPrecondition());
}

TEST(PassthroughTest, InitializeValidatesContext) {
  PassthroughMechanism mech;
  MechanismContext empty;
  EXPECT_TRUE(mech.Initialize(empty).IsInvalidArgument());
}

TEST(PatternLevelPpmTest, RejectsPrivatePatternWithUnknownType) {
  // Type 5 is outside the 3 registered types: publishing would index the
  // presence vector out of range, so Initialize must refuse eagerly.
  auto world = MakeWorld(3);
  AddPattern(&world, "bad", {0, 5}, DetectionMode::kSequence,
             /*is_private=*/true, /*is_target=*/false);
  AddPattern(&world, "target", {0, 1}, DetectionMode::kSequence,
             /*is_private=*/false, /*is_target=*/true);
  world.history.push_back(MakeWindow(0, {0, 1}));
  for (const char* name : {"uniform", "adaptive"}) {
    auto mech = MakeMechanism(name);
    ASSERT_TRUE(mech.ok()) << name;
    EXPECT_TRUE((*mech)->Initialize(world.Context()).IsInvalidArgument())
        << name;
  }
}

TEST(FactoryTest, CreatesEveryKnownMechanism) {
  for (const std::string& name : AllMechanismNames()) {
    auto m = MakeMechanism(name);
    ASSERT_TRUE(m.ok()) << name;
    EXPECT_EQ((*m)->name(), name);
  }
  EXPECT_TRUE(MakeMechanism("passthrough").ok());
}

TEST(FactoryTest, UnknownNameIsNotFound) {
  EXPECT_TRUE(MakeMechanism("definitely_not_a_mechanism").status()
                  .IsNotFound());
}

TEST(FactoryTest, CanonicalOrderStable) {
  auto names = AllMechanismNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "uniform");
  EXPECT_EQ(names[1], "adaptive");
}

}  // namespace
}  // namespace pldp
