// Copyright 2026 The PLDP Authors.

#include "ppm/mechanism.h"

#include "common/thread_annotations.h"

namespace pldp {

PLDP_HOT bool PatternDetectedInView(const PublishedView& view,
                                    const Pattern& pattern) {
  switch (pattern.mode()) {
    case DetectionMode::kSequence:
    case DetectionMode::kConjunction: {
      for (EventTypeId t : pattern.elements()) {
        if (t >= view.presence.size() || !view.presence[t]) return false;
      }
      return true;
    }
    case DetectionMode::kDisjunction: {
      for (EventTypeId t : pattern.elements()) {
        if (t < view.presence.size() && view.presence[t]) return true;
      }
      return false;
    }
  }
  return false;
}

PublishedView TrueView(const Window& window, size_t type_count) {
  PublishedView view;
  FillTrueView(window, type_count, &view);
  return view;
}

PLDP_HOT void FillTrueView(const Window& window, size_t type_count,
                           PublishedView* view) {
  view->presence.assign(type_count, false);
  for (const Event& e : window.events) {
    if (e.type() < type_count) view->presence[e.type()] = true;
  }
}

StatusOr<PublishedView> PrivacyMechanism::PublishWindow(const Window& window,
                                                        Rng* rng) {
  PublishedView view;
  PLDP_RETURN_IF_ERROR(PublishInto(window, rng, &view));
  return view;
}

Status PassthroughMechanism::Initialize(const MechanismContext& context) {
  if (context.event_types == nullptr) {
    return Status::InvalidArgument("context.event_types must be set");
  }
  type_count_ = context.event_types->size();
  return Status::OK();
}

Status PassthroughMechanism::PublishInto(const Window& window, Rng* rng,
                                         PublishedView* view) {
  (void)rng;
  if (type_count_ == 0) {
    return Status::FailedPrecondition("Initialize() not called");
  }
  FillTrueView(window, type_count_, view);
  return Status::OK();
}

std::unique_ptr<PrivacyMechanism> PassthroughMechanism::Clone() const {
  return std::make_unique<PassthroughMechanism>(*this);
}

}  // namespace pldp
