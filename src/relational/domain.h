#ifndef HAMLET_RELATIONAL_DOMAIN_H_
#define HAMLET_RELATIONAL_DOMAIN_H_

/// \file domain.h
/// Closed categorical domains (string dictionaries).
///
/// Per the paper's Section 2.1 every feature — including the target and
/// every foreign key — is a discrete random variable over a known finite
/// domain. A Domain maps each category label to a dense code in
/// [0, size()). Foreign-key columns *share* the Domain of the primary key
/// they reference, which is what makes the closed-domain assumption
/// (dom(FK) = set of RID values in R) structural rather than a runtime
/// convention.
///
/// Lookups are heterogeneous (std::string_view), so hot paths — the
/// chunked CSV parser, DomainRemap construction — never materialize a
/// temporary std::string just to probe the index. The index is a
/// FlatLabelIndex: one flat array of (hash, code) slots that reads label
/// bytes back through the Domain's own label list, so a label costs one
/// std::string plus a few 8-byte slots, never a heap node.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hamlet {

/// An open-addressing label → code index that stores no label bytes.
///
/// Each slot packs the high 32 bits of the label's hash above `code + 1`;
/// 0 marks an empty slot. A hash match is confirmed through the owner's
/// code → label accessor (`label_of(code)` returning something comparable
/// with std::string_view), so indexing a label allocates nothing per
/// label. Capacity is a power of two, at least twice the size; probing is
/// linear from a home slot taken from the stored hash bits, so growing
/// re-places slots without reading a single label. The owner (Domain, the
/// CSV reader's chunk dictionaries) keeps its labels in code order.
class FlatLabelIndex {
 public:
  static constexpr uint32_t kNoCode = UINT32_MAX;

  /// Returns the code whose label equals `label`, or kNoCode.
  template <typename LabelOf>
  uint32_t Find(std::string_view label, const LabelOf& label_of) const {
    if (size_ == 0) return kNoCode;
    const uint64_t slot = slots_[Probe(label, Tag(label), label_of)];
    return slot == 0 ? kNoCode : CodeIn(slot);
  }

  /// Returns the code of `label` when it is indexed. Otherwise indexes it
  /// under `code` and returns `code`; the caller must then store the
  /// label so that `label_of(code) == label` before the next probe.
  template <typename LabelOf>
  uint32_t FindOrInsert(std::string_view label, uint32_t code,
                        const LabelOf& label_of) {
    if ((size_t{size_} + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
    const uint64_t tag = Tag(label);
    const size_t i = Probe(label, tag, label_of);
    if (slots_[i] != 0) return CodeIn(slots_[i]);
    slots_[i] = tag | (uint64_t{code} + 1);
    ++size_;
    return code;
  }

  /// Sizes the table for `n` labels, so the next inserts do not grow it.
  void Reserve(size_t n);

 private:
  static constexpr uint64_t kTagBits = ~uint64_t{0} << 32;
  static constexpr size_t kMinCapacity = 16;

  static uint64_t Tag(std::string_view label) {
    return std::hash<std::string_view>{}(label) & kTagBits;
  }
  size_t Home(uint64_t tag) const {
    return static_cast<size_t>(tag >> 32) & mask_;
  }
  static uint32_t CodeIn(uint64_t slot) {
    return static_cast<uint32_t>(slot) - 1;
  }
  /// The slot holding `label`, or the empty slot that ends its probe run.
  /// The table must be non-empty.
  template <typename LabelOf>
  size_t Probe(std::string_view label, uint64_t tag,
               const LabelOf& label_of) const {
    for (size_t i = Home(tag);; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if (slot == 0 ||
          ((slot & kTagBits) == tag && label_of(CodeIn(slot)) == label)) {
        return i;
      }
    }
  }
  /// Re-places every slot into a table of max(capacity, kMinCapacity)
  /// slots (a power of two).
  void Rehash(size_t capacity);

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  uint32_t size_ = 0;
};

/// A finite, ordered set of category labels with O(1) label<->code lookup.
class Domain {
 public:
  Domain() = default;

  /// Builds a domain from distinct labels. Duplicate labels are a
  /// programming error (checked).
  explicit Domain(std::vector<std::string> labels);

  /// Creates the domain {"0","1",...,"<n-1>"} — handy for synthetic data
  /// and integer-coded categories.
  static std::shared_ptr<Domain> Dense(uint32_t n, const std::string& prefix = "");

  /// Returns the code of `label`, adding it if absent.
  uint32_t GetOrAdd(std::string_view label);

  /// Returns the code of `label` or NotFound.
  Result<uint32_t> Lookup(std::string_view label) const;

  /// Like Lookup but without a Status on miss: returns kNoCode when the
  /// label is absent. The code-level join/ingest paths use this form.
  static constexpr uint32_t kNoCode = FlatLabelIndex::kNoCode;
  uint32_t CodeOf(std::string_view label) const {
    return index_.Find(label, LabelOf{this});
  }

  /// True iff the label is present.
  bool Contains(std::string_view label) const {
    return CodeOf(label) != kNoCode;
  }

  /// The label for a code; code must be < size().
  const std::string& label(uint32_t code) const;

  /// Number of categories.
  uint32_t size() const { return static_cast<uint32_t>(labels_.size()); }

  /// All labels in code order.
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  /// The index's code → label accessor.
  struct LabelOf {
    const Domain* domain;
    const std::string& operator()(uint32_t code) const {
      return domain->labels_[code];
    }
  };

  std::vector<std::string> labels_;
  FlatLabelIndex index_;
};

/// A one-shot code→code translation between two domains, so joins probe
/// integer codes instead of labels even when the two columns were built
/// with distinct Domain objects. map[c] is the code in `to` of
/// from.label(c), or Domain::kNoCode when `to` lacks the label. When
/// `from` and `to` are the same object the remap is the identity and no
/// table is built.
class DomainRemap {
 public:
  static constexpr uint32_t kNoCode = Domain::kNoCode;

  DomainRemap(const std::shared_ptr<Domain>& from,
              const std::shared_ptr<Domain>& to);

  /// Translates a `from` code (must be < from.size()).
  uint32_t operator[](uint32_t from_code) const {
    if (identity_) return from_code;
    return map_[from_code];
  }

  /// True when the two domains are the same object (zero-cost remap).
  bool identity() const { return identity_; }

 private:
  bool identity_ = false;
  std::vector<uint32_t> map_;
};

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_DOMAIN_H_
