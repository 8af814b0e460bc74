// Copyright 2026 The PLDP Authors.

#include "ppm/numeric.h"

#include "common/math_utils.h"
#include "dp/laplace.h"

namespace pldp {

StatusOr<size_t> CountViaPublishedViews(PrivacyMechanism* mechanism,
                                        const std::vector<Window>& windows,
                                        const Pattern& target, Rng* rng) {
  if (mechanism == nullptr) {
    return Status::InvalidArgument("mechanism must not be null");
  }
  size_t count = 0;
  PublishedView view;
  for (const Window& w : windows) {
    PLDP_RETURN_IF_ERROR(mechanism->PublishInto(w, rng, &view));
    if (PatternDetectedInView(view, target)) ++count;
  }
  return count;
}

StatusOr<double> DirectNoisyCount(const std::vector<Window>& windows,
                                  const Pattern& target, double epsilon,
                                  double sensitivity, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  PLDP_ASSIGN_OR_RETURN(auto mech,
                        LaplaceMechanism::Create(sensitivity, epsilon));
  double truth = 0.0;
  for (const Window& w : windows) {
    PLDP_ASSIGN_OR_RETURN(bool hit, PatternOccursInWindow(w, target));
    if (hit) truth += 1.0;
  }
  double noisy = mech.AddNoise(truth, rng);
  return Clamp(noisy, 0.0, static_cast<double>(windows.size()));
}

}  // namespace pldp
