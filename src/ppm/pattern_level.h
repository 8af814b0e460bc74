// Copyright 2026 The PLDP Authors.
//
// Shared machinery of the two pattern-level PPMs (paper §V).
//
// Both mechanisms apply per-element randomized response to the existence
// indicators of private-pattern member types and leave every other type
// untouched; they differ only in how the pattern budget ε is split across
// elements. `PatternLevelPpm` implements the publishing path given
// per-pattern `BudgetAllocation`s supplied by the subclass.
//
// Overlapping private patterns (shared element types) receive independent
// mechanism applications, in registration order — the paper notes this only
// adds noise and never weakens the guarantee.

#ifndef PLDP_PPM_PATTERN_LEVEL_H_
#define PLDP_PPM_PATTERN_LEVEL_H_

#include <memory>
#include <vector>

#include "dp/budget.h"
#include "dp/randomized_response.h"
#include "ppm/mechanism.h"

namespace pldp {

/// Randomized response on one pattern's presence bits, applied in place to
/// a published view: one single-bit mechanism per element (paper
/// Definition 5), drawn in element order. Every element reads its type's
/// bit as it stood before this application; when a type repeats within
/// the pattern only its last occurrence writes (each element is an
/// independent mechanism and the published bit is the later one's output),
/// so no scratch copy of the bits is needed.
class PatternPerturber {
 public:
  /// `pattern` is borrowed and must outlive the perturber.
  static StatusOr<PatternPerturber> Create(const Pattern& pattern,
                                           const BudgetAllocation& allocation);

  /// Perturbs `view->presence` in place. Every element type of the pattern
  /// must index into the presence vector.
  void Apply(Rng* rng, PublishedView* view) const;

  const Pattern& pattern() const { return *pattern_; }

 private:
  PatternPerturber(const Pattern* pattern, PatternRandomizedResponse rr,
                   std::vector<bool> writes)
      : pattern_(pattern), rr_(std::move(rr)), writes_(std::move(writes)) {}

  const Pattern* pattern_;
  PatternRandomizedResponse rr_;
  /// writes_[i]: element i is the last occurrence of its type.
  std::vector<bool> writes_;
};

/// Base class: randomized response on private-pattern indicators.
class PatternLevelPpm : public PrivacyMechanism {
 public:
  Status Initialize(const MechanismContext& context) override;

  Status PublishInto(const Window& window, Rng* rng,
                     PublishedView* view) override;

  void Reset() override {}  // stateless across windows

  /// The allocation in effect for the i-th private pattern (after
  /// Initialize). Exposed for tests and the budget-distribution bench.
  const BudgetAllocation& allocation(size_t i) const {
    return plan_->allocations[i];
  }
  size_t private_pattern_count() const {
    return plan_ == nullptr ? 0 : plan_->allocations.size();
  }

  /// Per-pattern total ε actually configured (Theorem 1 sum).
  double PatternEpsilon(size_t i) const { return allocation(i).Total(); }

 protected:
  /// Subclass hook: produce the budget split for one private pattern.
  /// `pattern` is the pattern to protect; `context` carries history etc.
  /// Runs once per private pattern in Initialize; clones share the result.
  virtual StatusOr<BudgetAllocation> MakeAllocation(
      const Pattern& pattern, const MechanismContext& context) = 0;

 private:
  /// Everything Initialize derives, immutable afterwards and shared by
  /// every clone, so a clone costs one allocation.
  struct Plan {
    size_t type_count = 0;
    std::vector<BudgetAllocation> allocations;
    /// perturbers[k] applies allocations[k] to the k-th private pattern.
    std::vector<PatternPerturber> perturbers;
  };

  std::shared_ptr<const Plan> plan_;
};

/// Uniform pattern-level PPM (paper §V-A): ε_i = ε / m.
class UniformPatternPpm : public PatternLevelPpm {
 public:
  std::string name() const override { return "uniform"; }
  std::unique_ptr<PrivacyMechanism> Clone() const override;

 protected:
  StatusOr<BudgetAllocation> MakeAllocation(
      const Pattern& pattern, const MechanismContext& context) override;
};

}  // namespace pldp

#endif  // PLDP_PPM_PATTERN_LEVEL_H_
