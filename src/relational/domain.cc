#include "relational/domain.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace hamlet {

void FlatLabelIndex::Reserve(size_t n) {
  size_t capacity = std::max(slots_.size(), kMinCapacity);
  while (capacity < n * 2) capacity *= 2;
  if (capacity != slots_.size()) Rehash(capacity);
}

void FlatLabelIndex::Rehash(size_t capacity) {
  capacity = std::max(capacity, kMinCapacity);
  const std::vector<uint64_t> old =
      std::exchange(slots_, std::vector<uint64_t>(capacity, 0));
  mask_ = capacity - 1;
  for (const uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = Home(slot & kTagBits);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

Domain::Domain(std::vector<std::string> labels) : labels_(std::move(labels)) {
  index_.Reserve(labels_.size());
  for (uint32_t i = 0; i < labels_.size(); ++i) {
    HAMLET_CHECK(index_.FindOrInsert(labels_[i], i, LabelOf{this}) == i,
                 "duplicate label '%s' in Domain", labels_[i].c_str());
  }
}

std::shared_ptr<Domain> Domain::Dense(uint32_t n, const std::string& prefix) {
  std::vector<std::string> labels;
  labels.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    labels.push_back(prefix + std::to_string(i));
  }
  return std::make_shared<Domain>(std::move(labels));
}

uint32_t Domain::GetOrAdd(std::string_view label) {
  const uint32_t code = index_.FindOrInsert(label, size(), LabelOf{this});
  if (code == size()) labels_.emplace_back(label);
  return code;
}

Result<uint32_t> Domain::Lookup(std::string_view label) const {
  const uint32_t code = CodeOf(label);
  if (code == kNoCode) {
    return Status::NotFound(
        StringFormat("label '%.*s' not in domain",
                     static_cast<int>(label.size()), label.data()));
  }
  return code;
}

const std::string& Domain::label(uint32_t code) const {
  HAMLET_CHECK(code < size(), "code %u out of domain of size %u", code,
               size());
  return labels_[code];
}

DomainRemap::DomainRemap(const std::shared_ptr<Domain>& from,
                         const std::shared_ptr<Domain>& to) {
  HAMLET_CHECK(from != nullptr && to != nullptr,
               "DomainRemap requires non-null domains");
  if (from == to) {
    identity_ = true;
    return;
  }
  map_.resize(from->size());
  for (uint32_t c = 0; c < from->size(); ++c) {
    map_[c] = to->CodeOf(from->label(c));
  }
}

}  // namespace hamlet
