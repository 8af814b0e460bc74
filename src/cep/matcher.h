// Copyright 2026 The PLDP Authors.
//
// Pattern matching.
//
// Two evaluation styles are provided:
//
//  1. Window-batch matching (`FindMatchInWindow`): given a completed window,
//     decide whether the pattern occurs in it. This is what the evaluation
//     pipeline uses — the paper's queries are binary per window.
//
//  2. Incremental matching (`IncrementalMatcher`): an online automaton fed
//     one event at a time with a time-window constraint, as a production
//     CEP engine would run. Sequence matching uses the standard
//     skip-till-any-match semantics; existence detection is O(m) per event
//     via the "best start" frontier (for each matched prefix length we only
//     need the run with the latest start timestamp — any completion
//     available to an older run is available to it).

#ifndef PLDP_CEP_MATCHER_H_
#define PLDP_CEP_MATCHER_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cep/pattern.h"
#include "common/status.h"
#include "stream/window.h"

namespace pldp {

/// Searches `window` for an occurrence of `pattern`.
///
/// Returns the first match (positions in window.events) or nullopt.
///  - kSequence: leftmost-greedy subsequence of the element types.
///  - kConjunction: multiset containment — every element type must occur at
///    least as often as it appears in the pattern; positions are the
///    earliest witnesses.
///  - kDisjunction: any single element type present.
StatusOr<std::optional<PatternMatch>> FindMatchInWindow(
    const Window& window, const Pattern& pattern, PatternId id = 0,
    size_t window_index = 0);

/// Convenience: existence only.
StatusOr<bool> PatternOccursInWindow(const Window& window,
                                     const Pattern& pattern);

/// Counts non-overlapping occurrences (each window event used at most once)
/// — used by count-based baselines.
StatusOr<size_t> CountMatchesInWindow(const Window& window,
                                      const Pattern& pattern);

/// Online matcher: feed events in temporal order; emits a detection per
/// completed match. `window` is the maximum allowed span between the first
/// and last element of one match (<= 0 means unbounded).
class IncrementalMatcher {
 public:
  explicit IncrementalMatcher(Pattern pattern) : pattern_(std::move(pattern)) {}
  virtual ~IncrementalMatcher() = default;
  IncrementalMatcher(const IncrementalMatcher&) = delete;
  IncrementalMatcher& operator=(const IncrementalMatcher&) = delete;

  /// Processes one event; returns true if a (new) match completed at it.
  ///
  /// Type contract: for an event whose type is not an element of
  /// `pattern()`, OnEvent returns false and touches no state. The
  /// streaming engine's event-type index (cep/streaming_engine.h) relies
  /// on this to skip such calls altogether; every implementation must
  /// keep it.
  virtual bool OnEvent(const Event& event) = 0;

  /// Matches detected so far (detection timestamps).
  virtual const std::vector<Timestamp>& detections() const = 0;

  /// Resets all partial state.
  virtual void Reset() = 0;

  /// The pattern this matcher detects.
  const Pattern& pattern() const { return pattern_; }

 private:
  Pattern pattern_;
};

/// Creates the incremental matcher appropriate for `pattern.mode()`. The
/// matcher owns the pattern; pass an rvalue to avoid the copy.
std::unique_ptr<IncrementalMatcher> MakeIncrementalMatcher(Pattern pattern,
                                                           Timestamp window);

}  // namespace pldp

#endif  // PLDP_CEP_MATCHER_H_
