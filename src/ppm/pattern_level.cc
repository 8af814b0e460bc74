// Copyright 2026 The PLDP Authors.

#include "ppm/pattern_level.h"

#include <utility>

#include "common/thread_annotations.h"

namespace pldp {

StatusOr<PatternPerturber> PatternPerturber::Create(
    const Pattern& pattern, const BudgetAllocation& allocation) {
  if (allocation.size() != pattern.length()) {
    return Status::InvalidArgument("allocation size != pattern length for '" +
                                   pattern.name() + "'");
  }
  PLDP_ASSIGN_OR_RETURN(PatternRandomizedResponse rr,
                        PatternRandomizedResponse::FromAllocation(allocation));
  const std::vector<EventTypeId>& elems = pattern.elements();
  std::vector<bool> writes(elems.size(), true);
  for (size_t i = 0; i < elems.size(); ++i) {
    for (size_t j = i + 1; j < elems.size(); ++j) {
      if (elems[j] == elems[i]) writes[i] = false;
    }
  }
  return PatternPerturber(&pattern, std::move(rr), std::move(writes));
}

PLDP_HOT void PatternPerturber::Apply(Rng* rng, PublishedView* view) const {
  const std::vector<EventTypeId>& elems = pattern_->elements();
  for (size_t i = 0; i < elems.size(); ++i) {
    // A type's bit is only written at its last occurrence, so every read
    // here still sees the bit from before this application.
    const bool noisy = rr_.mechanism(i).Perturb(view->presence[elems[i]], rng);
    if (writes_[i]) view->presence[elems[i]] = noisy;
  }
}

Status PatternLevelPpm::Initialize(const MechanismContext& context) {
  plan_.reset();
  if (context.event_types == nullptr || context.patterns == nullptr) {
    return Status::InvalidArgument(
        "context.event_types and context.patterns must be set");
  }
  if (!(context.epsilon > 0.0)) {
    return Status::InvalidArgument("context.epsilon must be > 0");
  }
  if (context.private_patterns.empty()) {
    return Status::InvalidArgument(
        "pattern-level PPM needs at least one private pattern");
  }
  for (PatternId id : context.private_patterns) {
    if (!context.patterns->Contains(id)) {
      return Status::NotFound("private pattern id " + std::to_string(id) +
                              " not registered");
    }
    // PublishInto and the adaptive scorer index the per-type presence
    // vector by element type, so every element must be a known type.
    const Pattern& p = context.patterns->Get(id);
    for (EventTypeId type : p.elements()) {
      if (!context.event_types->Contains(type)) {
        return Status::InvalidArgument(
            "private pattern '" + p.name() + "' references event type " +
            std::to_string(type) + " outside the " +
            std::to_string(context.event_types->size()) + " registered types");
      }
    }
  }

  auto plan = std::make_shared<Plan>();
  plan->type_count = context.event_types->size();
  for (PatternId id : context.private_patterns) {
    const Pattern& p = context.patterns->Get(id);
    PLDP_ASSIGN_OR_RETURN(BudgetAllocation alloc, MakeAllocation(p, context));
    PLDP_ASSIGN_OR_RETURN(PatternPerturber perturber,
                          PatternPerturber::Create(p, alloc));
    plan->allocations.push_back(std::move(alloc));
    plan->perturbers.push_back(std::move(perturber));
  }
  plan_ = std::move(plan);
  return Status::OK();
}

PLDP_HOT Status PatternLevelPpm::PublishInto(const Window& window, Rng* rng,
                                             PublishedView* view) {
  if (plan_ == nullptr) {
    return Status::FailedPrecondition("Initialize() not called");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  FillTrueView(window, plan_->type_count, view);
  // Independent application per private pattern, in registration order.
  for (const PatternPerturber& perturber : plan_->perturbers) {
    perturber.Apply(rng, view);
  }
  return Status::OK();
}

std::unique_ptr<PrivacyMechanism> UniformPatternPpm::Clone() const {
  return std::make_unique<UniformPatternPpm>(*this);
}

StatusOr<BudgetAllocation> UniformPatternPpm::MakeAllocation(
    const Pattern& pattern, const MechanismContext& context) {
  return BudgetAllocation::Uniform(context.epsilon, pattern.length());
}

}  // namespace pldp
