// Copyright 2026 The PLDP Authors.
//
// Privacy-preserving mechanism (PPM) interface.
//
// A PPM sits between pattern detection and query answering: for each
// evaluation window it publishes a *privacy-protected view* — which event
// types are (claimed to be) present. Binary target queries are then
// answered from the published view instead of the raw window.
//
// This is exactly the paper's binary-answer reduction (§V): presence of the
// pattern's element types within the window decides the answer, so the
// published view is a per-type presence vector.
//
//   - Pattern-level PPMs (uniform/adaptive) perturb only the presence bits
//     of types that are elements of a private pattern; all other types pass
//     through unchanged. This is the source of their data-quality edge.
//   - Stream-level baselines (BD, BA, landmark) publish noisy counts for
//     every type; presence is thresholded from the noisy counts, so noise
//     hits the entire stream.
//
// Mechanisms may be stateful across windows (the w-event baselines are);
// `Reset` restores the initial state between experiment repetitions.

#ifndef PLDP_PPM_MECHANISM_H_
#define PLDP_PPM_MECHANISM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/pattern.h"
#include "common/random.h"
#include "common/status.h"
#include "stream/window.h"

namespace pldp {

/// Everything a mechanism needs to configure itself.
struct MechanismContext {
  /// Event-type space (presence vectors are indexed by type id).
  const EventTypeRegistry* event_types = nullptr;
  /// All registered patterns (private and target).
  const PatternRegistry* patterns = nullptr;
  /// The pattern types the data subjects declared private.
  std::vector<PatternId> private_patterns;
  /// Pattern-level privacy budget ε granted per private pattern.
  double epsilon = 1.0;
  /// Historical windows for adaptive tuning (may be empty).
  const std::vector<Window>* history = nullptr;
  /// Target patterns used by adaptive tuning to score quality.
  std::vector<PatternId> target_patterns;
  /// Quality trade-off hyper-parameter α of Q = α·Prec + (1−α)·Rec.
  double alpha = 0.5;
};

/// The privacy-protected content of one window: presence per event type.
struct PublishedView {
  /// presence[t] == true: the mechanism claims at least one event of type t
  /// occurred in the window. Indexed by EventTypeId; size = registry size.
  std::vector<bool> presence;
};

/// Evaluates a pattern on a published view.
///
/// Under the binary reduction, kConjunction and kSequence both require all
/// element types present (an injected presence bit carries no order, so
/// order degenerates to co-occurrence — the paper's queries are exactly of
/// this kind); kDisjunction requires any.
bool PatternDetectedInView(const PublishedView& view, const Pattern& pattern);

/// Builds the truthful view of a window (no privacy).
PublishedView TrueView(const Window& window, size_t type_count);

/// Overwrites `view` with the truthful view of `window`, reusing its
/// storage: no allocation once the view has held `type_count` bits.
void FillTrueView(const Window& window, size_t type_count,
                  PublishedView* view);

/// Abstract PPM.
///
/// Implementing a custom mechanism: override Initialize, PublishInto,
/// Clone, Reset and name. The service path (ppm/subject_publisher.h)
/// Initializes ONE prototype per publisher and gives every data subject
/// `prototype->Clone()`, so Clone must honour this contract:
///
///   - A clone of an Initialized mechanism is Initialized, independent of
///     the original (publishing from one never changes what the other
///     publishes), and in the state a fresh `factory()` + `Initialize`
///     with the same context would be in: given the same Rng, the two
///     publish identical view sequences. Inter-window state (the w-event
///     baselines' last release, counters) starts from its initial value.
///   - Immutable setup products — tuned budgets, resolved patterns — may
///     be shared between clones (e.g. via shared_ptr<const ...>) rather
///     than copied: that is what makes a clone cheap. Anything shared
///     must stay immutable after Initialize.
///   - Clone runs on the publisher's thread whenever a new data subject
///     appears, so it should cost no more than a copy.
class PrivacyMechanism {
 public:
  virtual ~PrivacyMechanism() = default;

  /// Validates the context and prepares internal state. Must be called
  /// before the first publication.
  virtual Status Initialize(const MechanismContext& context) = 0;

  /// Publishes the protected view of the next window into `*view`,
  /// overwriting it and reusing its storage. Windows arrive in temporal
  /// order; stateful mechanisms rely on that. On error `*view` is
  /// unspecified.
  virtual Status PublishInto(const Window& window, Rng* rng,
                             PublishedView* view) = 0;

  /// Convenience form of PublishInto that returns a freshly allocated view.
  StatusOr<PublishedView> PublishWindow(const Window& window, Rng* rng);

  /// An independent copy in its post-Initialize state (see the class
  /// comment for the contract custom mechanisms must meet).
  virtual std::unique_ptr<PrivacyMechanism> Clone() const = 0;

  /// Clears inter-window state (start of a new repetition / stream).
  virtual void Reset() = 0;

  /// Mechanism name for reports ("uniform", "bd", ...).
  virtual std::string name() const = 0;
};

/// Creates un-Initialized mechanism instances. The sharded service path
/// (ppm/subject_publisher.h) calls it once per publisher, Initializes the
/// result as a prototype, and clones that prototype for every data subject
/// (PrivacyMechanism::Clone), so stateful mechanisms never share
/// inter-window state across subjects.
using MechanismFactory =
    std::function<StatusOr<std::unique_ptr<PrivacyMechanism>>()>;

/// No-op mechanism: publishes the truthful view. Gives Q_ord in MRE
/// computations and doubles as the "no privacy" control in benches.
class PassthroughMechanism final : public PrivacyMechanism {
 public:
  Status Initialize(const MechanismContext& context) override;
  Status PublishInto(const Window& window, Rng* rng,
                     PublishedView* view) override;
  std::unique_ptr<PrivacyMechanism> Clone() const override;
  void Reset() override {}
  std::string name() const override { return "passthrough"; }

 private:
  size_t type_count_ = 0;
};

}  // namespace pldp

#endif  // PLDP_PPM_MECHANISM_H_
