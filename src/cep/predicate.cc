// Copyright 2026 The PLDP Authors.

#include "cep/predicate.h"

#include <unordered_set>

#include "common/strings.h"

namespace pldp {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

PLDP_HOT bool CompareDoubles(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

class TruePredicate final : public Predicate {
 public:
  PLDP_HOT StatusOr<bool> Eval(const Event&) const override { return true; }
  std::string ToString() const override { return "true"; }
};

class TypeIsPredicate final : public Predicate {
 public:
  explicit TypeIsPredicate(EventTypeId type) : type_(type) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    return event.type() == type_;
  }

  std::string ToString() const override {
    return StrFormat("type==%u", type_);
  }

 private:
  EventTypeId type_;
};

class NumericComparePredicate final : public Predicate {
 public:
  NumericComparePredicate(std::string attr, CompareOp op, double constant)
      : attr_(std::move(attr)),
        attr_id_(AttrNames().Intern(attr_)),  // the bind step (see header)
        op_(op),
        constant_(constant) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    const Value* v = event.FindAttribute(attr_id_);
    if (v == nullptr) return false;
    PLDP_ASSIGN_OR_RETURN(double num, v->AsNumeric());
    return CompareDoubles(num, op_, constant_);
  }

  std::string ToString() const override {
    return StrFormat("%s %s %g", attr_.c_str(),
                     std::string(CompareOpToString(op_)).c_str(), constant_);
  }

 private:
  std::string attr_;
  AttrId attr_id_;
  CompareOp op_;
  double constant_;
};

class StringComparePredicate final : public Predicate {
 public:
  StringComparePredicate(std::string attr, CompareOp op, std::string constant)
      : attr_(std::move(attr)),
        attr_id_(AttrNames().Intern(attr_)),
        op_(op),
        constant_(std::move(constant)),
        constant_sym_(SymbolNames().Intern(constant_)) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    const Value* v = event.FindAttribute(attr_id_);
    if (v == nullptr) return false;
    bool eq;
    if (v->is_symbol()) {
      // Interned payload: symbol ids are unique per content, so one
      // integer comparison decides equality.
      eq = v->AsSymbol().value() == constant_sym_;
    } else {
      PLDP_ASSIGN_OR_RETURN(std::string_view s, v->AsStringView());
      eq = (s == constant_);
    }
    return op_ == CompareOp::kEq ? eq : !eq;
  }

  std::string ToString() const override {
    return StrFormat("%s %s \"%s\"", attr_.c_str(),
                     std::string(CompareOpToString(op_)).c_str(),
                     constant_.c_str());
  }

 private:
  std::string attr_;
  AttrId attr_id_;
  CompareOp op_;
  std::string constant_;
  SymbolId constant_sym_;
};

class IntSetMemberPredicate final : public Predicate {
 public:
  IntSetMemberPredicate(std::string attr, std::vector<int64_t> members)
      : attr_(std::move(attr)),
        attr_id_(AttrNames().Intern(attr_)),
        members_(members.begin(), members.end()) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    const Value* v = event.FindAttribute(attr_id_);
    if (v == nullptr) return false;
    PLDP_ASSIGN_OR_RETURN(int64_t i, v->AsInt());
    return members_.count(i) > 0;
  }

  std::string ToString() const override {
    return StrFormat("%s in {%zu members}", attr_.c_str(), members_.size());
  }

 private:
  std::string attr_;
  AttrId attr_id_;
  std::unordered_set<int64_t> members_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> operands)
      : operands_(std::move(operands)) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    for (const auto& p : operands_) {
      PLDP_ASSIGN_OR_RETURN(bool b, p->Eval(event));
      if (!b) return false;
    }
    return true;
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(operands_.size());
    for (const auto& p : operands_) parts.push_back(p->ToString());
    return "(" + Join(parts, '&') + ")";
  }

 private:
  std::vector<PredicatePtr> operands_;
};

class OrPredicate final : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> operands)
      : operands_(std::move(operands)) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    for (const auto& p : operands_) {
      PLDP_ASSIGN_OR_RETURN(bool b, p->Eval(event));
      if (b) return true;
    }
    return false;
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(operands_.size());
    for (const auto& p : operands_) parts.push_back(p->ToString());
    return "(" + Join(parts, '|') + ")";
  }

 private:
  std::vector<PredicatePtr> operands_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr operand) : operand_(std::move(operand)) {}

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override {
    PLDP_ASSIGN_OR_RETURN(bool b, operand_->Eval(event));
    return !b;
  }

  std::string ToString() const override {
    return "!" + operand_->ToString();
  }

 private:
  PredicatePtr operand_;
};

}  // namespace

PredicatePtr MakeTrue() { return std::make_shared<TruePredicate>(); }

PredicatePtr MakeTypeIs(EventTypeId type) {
  return std::make_shared<TypeIsPredicate>(type);
}

PredicatePtr MakeNumericCompare(std::string attr, CompareOp op,
                                double constant) {
  return std::make_shared<NumericComparePredicate>(std::move(attr), op,
                                                   constant);
}

PredicatePtr MakeStringCompare(std::string attr, CompareOp op,
                               std::string constant) {
  return std::make_shared<StringComparePredicate>(std::move(attr), op,
                                                  std::move(constant));
}

PredicatePtr MakeIntSetMember(std::string attr, std::vector<int64_t> members) {
  return std::make_shared<IntSetMemberPredicate>(std::move(attr),
                                                 std::move(members));
}

PredicatePtr MakeAnd(std::vector<PredicatePtr> operands) {
  return std::make_shared<AndPredicate>(std::move(operands));
}

PredicatePtr MakeOr(std::vector<PredicatePtr> operands) {
  return std::make_shared<OrPredicate>(std::move(operands));
}

PredicatePtr MakeNot(PredicatePtr operand) {
  return std::make_shared<NotPredicate>(std::move(operand));
}

}  // namespace pldp
