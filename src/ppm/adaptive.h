// Copyright 2026 The PLDP Authors.
//
// Adaptive pattern-level PPM (paper §V-B, Algorithm 1).
//
// The per-element budgets ε_i of one private pattern are tuned on
// historical windows with a bidirectional stepwise search: starting from
// the uniform split, each round tries shifting a step δε onto every element
// in turn (winner += δε, all -= δε/m), scores the resulting data quality
// Q = α·Prec + (1−α)·Rec on the history by Monte-Carlo simulation of the
// mechanism, and keeps the best shift while it does not decrease Q.
//
// Candidate allocations are scored with common random numbers (the same
// seed per round) so the comparison between candidates is low-variance.

#ifndef PLDP_PPM_ADAPTIVE_H_
#define PLDP_PPM_ADAPTIVE_H_

#include <vector>

#include "ppm/pattern_level.h"

namespace pldp {

/// Tuning knobs of Algorithm 1.
struct AdaptivePpmOptions {
  /// Step size δε. <= 0 selects the paper's suggestion δε = m·ε/100.
  double step_epsilon = 0.0;
  /// Monte-Carlo trials per quality estimate.
  size_t trials = 64;
  /// Hard cap on stepwise rounds (the paper's loop guards only on Q and the
  /// budget box; a cap keeps runtime bounded on plateaus).
  size_t max_rounds = 50;
  /// Minimum Q gain to accept a shift. The paper accepts on >=; a tiny
  /// positive threshold avoids cycling on exact plateaus.
  double min_improvement = 1e-9;
  /// Seed for the Monte-Carlo evaluation.
  uint64_t seed = 0x9d1f2c3b4a5e6f70ULL;
};

/// Estimates Q for one private pattern under a candidate allocation by
/// simulating the randomized response over the historical windows.
///
/// For each history window and each target pattern: truth = detection in
/// the unperturbed view; prediction = detection after perturbing this
/// private pattern's element indicators with `allocation`. Confusion counts
/// accumulate over windows × targets × trials.
StatusOr<double> EvaluateAllocationQuality(
    const BudgetAllocation& allocation, const Pattern& private_pattern,
    const MechanismContext& context, size_t trials, uint64_t seed);

/// Runs Algorithm 1 for one private pattern; returns the tuned allocation.
StatusOr<BudgetAllocation> BidirectionalStepwiseSearch(
    const Pattern& private_pattern, const MechanismContext& context,
    const AdaptivePpmOptions& options);

/// The adaptive PPM: per-pattern allocations from Algorithm 1. Falls back
/// to the uniform split when the context has no historical windows.
class AdaptivePatternPpm final : public PatternLevelPpm {
 public:
  AdaptivePatternPpm() = default;
  explicit AdaptivePatternPpm(AdaptivePpmOptions options)
      : options_(options) {}

  std::string name() const override { return "adaptive"; }
  std::unique_ptr<PrivacyMechanism> Clone() const override;

  const AdaptivePpmOptions& options() const { return options_; }

 protected:
  StatusOr<BudgetAllocation> MakeAllocation(
      const Pattern& pattern, const MechanismContext& context) override;

 private:
  AdaptivePpmOptions options_;
};

}  // namespace pldp

#endif  // PLDP_PPM_ADAPTIVE_H_
