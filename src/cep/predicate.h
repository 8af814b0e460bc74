// Copyright 2026 The PLDP Authors.
//
// Event predicates: the filter language of the CEP engine.
//
// A predicate decides whether a single event is "of interest" for a pattern
// element. The taxi experiment uses attribute predicates (cell membership);
// the synthetic experiment uses plain type predicates. Predicates compose
// with And/Or/Not.
//
// Bind step: the Make* factories compile each predicate against the
// process-wide interning tables (event/symbol_table.h) once, at
// query-registration time — attribute names resolve to `AttrId`s and
// string constants to `SymbolId`s. Per-event evaluation is then integer
// lookups over the event's inline attribute buffer plus, for interned
// payloads, a single id comparison: no string compares, no allocation.
// Because the tables are get-or-create, binding works whether the
// predicate or the first event carrying the attribute is created first.

#ifndef PLDP_CEP_PREDICATE_H_
#define PLDP_CEP_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"

namespace pldp {

/// Comparison operators for attribute predicates.
enum class CompareOp : int { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpToString(CompareOp op);

/// Boolean condition over one event.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Evaluates against `event`. Errors propagate (e.g. missing attribute
  /// with `require_attribute` semantics). Runs once per event per pattern
  /// element on worker threads — implementations must stay allocation-free
  /// (integer lookups over pre-interned ids; see the bind step above).
  PLDP_HOT virtual StatusOr<bool> Eval(const Event& event) const = 0;

  /// Human-readable rendering for diagnostics.
  virtual std::string ToString() const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// Always true.
PredicatePtr MakeTrue();

/// Event type equals `type`.
PredicatePtr MakeTypeIs(EventTypeId type);

/// Numeric comparison `event[attr] <op> constant`; events lacking the
/// attribute evaluate to false (absent data cannot satisfy a filter).
PredicatePtr MakeNumericCompare(std::string attr, CompareOp op,
                                double constant);

/// String equality `event[attr] == constant` (kNe for inequality); absent
/// attribute evaluates to false.
PredicatePtr MakeStringCompare(std::string attr, CompareOp op,
                               std::string constant);

/// `event[attr]` is an integer contained in `members`. Used for
/// "cell in private area" conditions; absent attribute evaluates to false.
PredicatePtr MakeIntSetMember(std::string attr, std::vector<int64_t> members);

/// Conjunction / disjunction / negation.
PredicatePtr MakeAnd(std::vector<PredicatePtr> operands);
PredicatePtr MakeOr(std::vector<PredicatePtr> operands);
PredicatePtr MakeNot(PredicatePtr operand);

}  // namespace pldp

#endif  // PLDP_CEP_PREDICATE_H_
