// Copyright 2026 The PLDP Authors.

#include "ppm/pattern_level.h"

namespace pldp {

Status PatternLevelPpm::Initialize(const MechanismContext& context) {
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
    // PublishWindow and the adaptive scorer index the per-type presence
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

  context_ = context;
  type_count_ = context.event_types->size();
  private_ids_ = context.private_patterns;
  allocations_.clear();
  mechanisms_.clear();

  for (PatternId id : private_ids_) {
    const Pattern& p = context.patterns->Get(id);
    PLDP_ASSIGN_OR_RETURN(BudgetAllocation alloc, MakeAllocation(p, context));
    if (alloc.size() != p.length()) {
      return Status::Internal("allocation size mismatch for pattern '" +
                              p.name() + "'");
    }
    PLDP_ASSIGN_OR_RETURN(auto mech,
                          PatternRandomizedResponse::FromAllocation(alloc));
    allocations_.push_back(std::move(alloc));
    mechanisms_.push_back(std::move(mech));
  }
  initialized_ = true;
  return Status::OK();
}

StatusOr<PublishedView> PatternLevelPpm::PublishWindow(const Window& window,
                                                       Rng* rng) {
  if (!initialized_) {
    return Status::FailedPrecondition("Initialize() not called");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  PublishedView view = TrueView(window, type_count_);

  // Independent application per private pattern, in registration order.
  for (size_t k = 0; k < private_ids_.size(); ++k) {
    const Pattern& p = context_.patterns->Get(private_ids_[k]);
    const auto& elems = p.elements();

    // Collect the current indicator of each element...
    std::vector<bool> indicators(elems.size());
    for (size_t i = 0; i < elems.size(); ++i) {
      indicators[i] = view.presence[elems[i]];
    }
    // ...perturb them jointly (one RR per element)...
    PLDP_ASSIGN_OR_RETURN(std::vector<bool> noisy,
                          mechanisms_[k].Perturb(indicators, rng));
    // ...and write back. When a type repeats within the pattern, the later
    // element's output wins (each element is an independent mechanism; the
    // published bit composes their outputs).
    for (size_t i = 0; i < elems.size(); ++i) {
      view.presence[elems[i]] = noisy[i];
    }
  }
  return view;
}

StatusOr<BudgetAllocation> UniformPatternPpm::MakeAllocation(
    const Pattern& pattern, const MechanismContext& context) {
  return BudgetAllocation::Uniform(context.epsilon, pattern.length());
}

}  // namespace pldp
