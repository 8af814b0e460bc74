// Copyright 2026 The PLDP Authors.

#include "cep/matcher.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace pldp {

namespace {

// Leftmost-greedy subsequence search for SEQ patterns.
std::optional<std::vector<size_t>> SequencePositions(
    const std::vector<Event>& events, const std::vector<EventTypeId>& elems) {
  std::vector<size_t> positions;
  positions.reserve(elems.size());
  size_t next = 0;
  for (size_t i = 0; i < events.size() && next < elems.size(); ++i) {
    if (events[i].type() == elems[next]) {
      positions.push_back(i);
      ++next;
    }
  }
  if (next == elems.size()) return positions;
  return std::nullopt;
}

// Earliest witnesses for AND patterns with multiset containment.
std::optional<std::vector<size_t>> ConjunctionPositions(
    const std::vector<Event>& events, const std::vector<EventTypeId>& elems) {
  // Required multiplicity per type.
  std::unordered_map<EventTypeId, size_t> need;
  for (EventTypeId t : elems) ++need[t];

  // Earliest occurrence indices per type.
  std::unordered_map<EventTypeId, std::vector<size_t>> found;
  for (size_t i = 0; i < events.size(); ++i) {
    auto it = need.find(events[i].type());
    if (it == need.end()) continue;
    auto& vec = found[events[i].type()];
    if (vec.size() < it->second) vec.push_back(i);
  }
  for (const auto& [type, count] : need) {
    auto it = found.find(type);
    if (it == found.end() || it->second.size() < count) return std::nullopt;
  }
  // Emit positions in pattern-element order, consuming witnesses in order.
  std::unordered_map<EventTypeId, size_t> cursor;
  std::vector<size_t> positions;
  positions.reserve(elems.size());
  for (EventTypeId t : elems) {
    positions.push_back(found[t][cursor[t]++]);
  }
  return positions;
}

std::optional<std::vector<size_t>> DisjunctionPositions(
    const std::vector<Event>& events, const std::vector<EventTypeId>& elems) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (std::find(elems.begin(), elems.end(), events[i].type()) !=
        elems.end()) {
      return std::vector<size_t>{i};
    }
  }
  return std::nullopt;
}

}  // namespace

StatusOr<std::optional<PatternMatch>> FindMatchInWindow(const Window& window,
                                                        const Pattern& pattern,
                                                        PatternId id,
                                                        size_t window_index) {
  if (pattern.length() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  std::optional<std::vector<size_t>> positions;
  switch (pattern.mode()) {
    case DetectionMode::kSequence:
      positions = SequencePositions(window.events, pattern.elements());
      break;
    case DetectionMode::kConjunction:
      positions = ConjunctionPositions(window.events, pattern.elements());
      break;
    case DetectionMode::kDisjunction:
      positions = DisjunctionPositions(window.events, pattern.elements());
      break;
  }
  if (!positions.has_value()) return std::optional<PatternMatch>();
  PatternMatch match;
  match.pattern = id;
  match.window_index = window_index;
  match.event_positions = std::move(*positions);
  Timestamp last = std::numeric_limits<Timestamp>::min();
  for (size_t pos : match.event_positions) {
    last = std::max(last, window.events[pos].timestamp());
  }
  match.detected_at = match.event_positions.empty() ? window.start : last;
  return std::optional<PatternMatch>(std::move(match));
}

StatusOr<bool> PatternOccursInWindow(const Window& window,
                                     const Pattern& pattern) {
  PLDP_ASSIGN_OR_RETURN(auto match, FindMatchInWindow(window, pattern));
  return match.has_value();
}

StatusOr<size_t> CountMatchesInWindow(const Window& window,
                                      const Pattern& pattern) {
  if (pattern.length() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  switch (pattern.mode()) {
    case DetectionMode::kSequence: {
      // Greedy non-overlapping subsequence scans.
      size_t count = 0;
      size_t next = 0;
      for (const Event& e : window.events) {
        if (e.type() == pattern.elements()[next]) {
          if (++next == pattern.length()) {
            ++count;
            next = 0;
          }
        }
      }
      return count;
    }
    case DetectionMode::kConjunction: {
      // Bottleneck multiplicity across required types.
      std::unordered_map<EventTypeId, size_t> need;
      for (EventTypeId t : pattern.elements()) ++need[t];
      size_t count = std::numeric_limits<size_t>::max();
      for (const auto& [type, mult] : need) {
        count = std::min(count, window.CountType(type) / mult);
      }
      return count == std::numeric_limits<size_t>::max() ? 0 : count;
    }
    case DetectionMode::kDisjunction: {
      size_t count = 0;
      for (EventTypeId t : pattern.DistinctTypes()) {
        count += window.CountType(t);
      }
      return count;
    }
  }
  return Status::Internal("unreachable");
}

namespace {

/// Frontier-based online SEQ matcher (see header).
class SequenceIncrementalMatcher final : public IncrementalMatcher {
 public:
  SequenceIncrementalMatcher(Pattern pattern, Timestamp window)
      : IncrementalMatcher(std::move(pattern)), window_(window) {
    Reset();
  }

  bool OnEvent(const Event& event) override {
    const auto& elems = pattern().elements();
    const Timestamp t = event.timestamp();
    bool matched = false;
    // Walk prefixes from longest to shortest so one event does not advance
    // the same run twice in a single step.
    for (size_t k = elems.size(); k-- > 0;) {
      if (event.type() != elems[k]) continue;
      Timestamp start;
      if (k == 0) {
        start = t;  // new run begins here
      } else {
        start = best_start_[k - 1];
        if (start == kNoRun) continue;
        if (window_ > 0 && t - start > window_) continue;  // run expired
      }
      if (k + 1 == elems.size()) {
        detections_.push_back(t);
        matched = true;
      } else {
        best_start_[k] = std::max(best_start_[k], start);
      }
    }
    return matched;
  }

  const std::vector<Timestamp>& detections() const override {
    return detections_;
  }

  void Reset() override {
    best_start_.assign(pattern().length(), kNoRun);
    detections_.clear();
  }

 private:
  static constexpr Timestamp kNoRun = std::numeric_limits<Timestamp>::min();

  Timestamp window_;
  // best_start_[k]: latest possible start timestamp of a run that has
  // matched elements [0..k].
  std::vector<Timestamp> best_start_;
  std::vector<Timestamp> detections_;
};

/// Online AND matcher: all distinct types seen within the trailing window.
class ConjunctionIncrementalMatcher final : public IncrementalMatcher {
 public:
  ConjunctionIncrementalMatcher(Pattern pattern, Timestamp window)
      : IncrementalMatcher(std::move(pattern)), window_(window) {
    const std::vector<EventTypeId>& elems = this->pattern().elements();
    types_.reserve(elems.size());
    for (EventTypeId t : elems) {
      if (std::find(types_.begin(), types_.end(), t) == types_.end()) {
        types_.push_back(t);
      }
    }
    last_seen_.assign(types_.size(), kNever);
  }

  bool OnEvent(const Event& event) override {
    const auto it = std::find(types_.begin(), types_.end(), event.type());
    if (it == types_.end()) return false;
    const Timestamp t = event.timestamp();
    last_seen_[static_cast<size_t>(it - types_.begin())] = t;
    // Detected iff every required type was seen within the trailing window.
    for (Timestamp seen : last_seen_) {
      if (seen == kNever) return false;
      if (window_ > 0 && t - seen > window_) return false;
    }
    detections_.push_back(t);
    return true;
  }

  const std::vector<Timestamp>& detections() const override {
    return detections_;
  }

  void Reset() override {
    std::fill(last_seen_.begin(), last_seen_.end(), kNever);
    detections_.clear();
  }

 private:
  static constexpr Timestamp kNever = std::numeric_limits<Timestamp>::min();

  Timestamp window_;
  // Distinct element types (first-seen order) and, at the same index, the
  // latest timestamp each was seen at.
  std::vector<EventTypeId> types_;
  std::vector<Timestamp> last_seen_;
  std::vector<Timestamp> detections_;
};

/// Online OR matcher: any element type triggers.
class DisjunctionIncrementalMatcher final : public IncrementalMatcher {
 public:
  explicit DisjunctionIncrementalMatcher(Pattern pattern)
      : IncrementalMatcher(std::move(pattern)) {}

  bool OnEvent(const Event& event) override {
    if (!pattern().ContainsType(event.type())) return false;
    detections_.push_back(event.timestamp());
    return true;
  }

  const std::vector<Timestamp>& detections() const override {
    return detections_;
  }

  void Reset() override { detections_.clear(); }

 private:
  std::vector<Timestamp> detections_;
};

}  // namespace

std::unique_ptr<IncrementalMatcher> MakeIncrementalMatcher(Pattern pattern,
                                                           Timestamp window) {
  switch (pattern.mode()) {
    case DetectionMode::kSequence:
      return std::make_unique<SequenceIncrementalMatcher>(std::move(pattern),
                                                          window);
    case DetectionMode::kConjunction:
      return std::make_unique<ConjunctionIncrementalMatcher>(
          std::move(pattern), window);
    case DetectionMode::kDisjunction:
      return std::make_unique<DisjunctionIncrementalMatcher>(
          std::move(pattern));
  }
  return nullptr;
}

}  // namespace pldp
