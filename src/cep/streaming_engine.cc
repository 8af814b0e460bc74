// Copyright 2026 The PLDP Authors.

#include "cep/streaming_engine.h"

#include <string>
#include <utility>

namespace pldp {

StatusOr<size_t> StreamingCepEngine::AddQuery(Pattern pattern,
                                              Timestamp window) {
  if (pattern.length() == 0) {
    return Status::InvalidArgument("query pattern must not be empty");
  }
  for (EventTypeId type : pattern.elements()) {
    if (type >= kMaxIndexedType) {
      return Status::InvalidArgument("event type id " + std::to_string(type) +
                                     " is beyond the type index");
    }
  }
  auto matcher = MakeIncrementalMatcher(std::move(pattern), window);
  if (matcher == nullptr) {
    return Status::Internal("no matcher for detection mode");
  }
  const auto q = static_cast<uint32_t>(matchers_.size());
  for (EventTypeId type : matcher->pattern().elements()) {
    if (type >= by_type_.size()) by_type_.resize(size_t{type} + 1);
    std::vector<uint32_t>& queries = by_type_[type];
    // A repeated element type (SEQ(a,a,b), AND(a,a)) is listed once: q is
    // the largest query index so far, so it can only be at the back.
    if (queries.empty() || queries.back() != q) queries.push_back(q);
  }
  matchers_.push_back(std::move(matcher));
  return size_t{q};
}

StatusOr<std::vector<Timestamp>> StreamingCepEngine::DetectionsOf(
    size_t query_index) const {
  if (query_index >= matchers_.size()) {
    return Status::OutOfRange("unknown query index " +
                              std::to_string(query_index));
  }
  return matchers_[query_index]->detections();
}

void StreamingCepEngine::ResetState() {
  for (auto& m : matchers_) m->Reset();
  total_detections_ = 0;
  events_processed_ = 0;
}

Status StreamingCepEngine::OnEvent(const Event& event) {
  ++events_processed_;
  const EventTypeId type = event.type();
  if (type >= by_type_.size()) return Status::OK();
  for (const uint32_t q : by_type_[type]) {
    if (matchers_[q]->OnEvent(event)) {
      ++total_detections_;
      if (callback_) {
        callback_(StreamingDetection{q, event.timestamp()});
      }
    }
  }
  return Status::OK();
}

}  // namespace pldp
