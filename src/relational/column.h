#ifndef HAMLET_RELATIONAL_COLUMN_H_
#define HAMLET_RELATIONAL_COLUMN_H_

/// \file column.h
/// Dictionary-encoded categorical columns.
///
/// A Column is a dense vector of uint32 codes plus a shared Domain. All
/// columns in this library are categorical (the paper's all-nominal
/// setting); numeric inputs are discretized at ingestion (see
/// stats/binning.h). Key and foreign-key columns are ordinary categorical
/// columns whose Domain is the referenced dictionary.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "relational/domain.h"

namespace hamlet {

/// Process-wide accounting of the code bytes held by live Column objects.
/// Every Column registers its code vector's bytes on construction and
/// releases them on destruction, so LiveBytes()/PeakBytes() measure what
/// the relational layer actually materializes — the quantity factorized
/// training avoids (a joined table's gathered columns never exist in
/// avoid-materialization mode; see ml/factorized.h). Counters are relaxed
/// atomics: exact under serial phases, race-free always.
class ColumnMemory {
 public:
  /// Code bytes of all currently live Columns.
  static int64_t LiveBytes();

  /// High-water mark of LiveBytes() since the last ResetPeak().
  static int64_t PeakBytes();

  /// Resets the peak to the current live figure (benchmarks and the
  /// memory-win tests bracket a phase with this).
  static void ResetPeak();

  /// Adjusts the live figure by `bytes` (internal; called by Column).
  static void Add(int64_t bytes);
};

/// Fewest rows per shard of Column::Gather. A gathered row costs 0.5-2 ns,
/// while waking pool workers for a region costs 10-20 us. Measured on a
/// 4-CPU host (random rows of a 1M-row column, 3-5 runs per size): a
/// gather of up to 16384 rows ran 1.5-2x faster inline than on 2 or 4
/// shards, from 24576 rows 4 shards broke even or won, and at 50000 rows
/// 4 shards beat 3 by 20-30%. A grain of 12288 keeps the first inline
/// (2 x 12288 > 16384) and gives the last all 4 shards (50000 / 12288 >=
/// 4): samples, test tables and small joins gather inline.
inline constexpr uint32_t kGatherRowGrain = 12 * 1024;

/// A dictionary-encoded column of categorical values.
class Column {
 public:
  Column() : domain_(std::make_shared<Domain>()) {}

  /// Constructs from codes and a domain; every code must be < domain size
  /// (checked lazily by accessors in debug paths, and by Validate()).
  Column(std::vector<uint32_t> codes, std::shared_ptr<Domain> domain)
      : codes_(std::move(codes)), domain_(std::move(domain)) {
    HAMLET_CHECK(domain_ != nullptr, "Column requires a non-null domain");
    Account();
  }

  Column(const Column& other)
      : codes_(other.codes_), domain_(other.domain_) {
    Account();
  }

  Column(Column&& other) noexcept
      : codes_(std::move(other.codes_)),
        domain_(std::move(other.domain_)),
        accounted_(other.accounted_) {
    other.accounted_ = 0;
  }

  Column& operator=(const Column& other) {
    if (this != &other) {
      codes_ = other.codes_;
      domain_ = other.domain_;
      Account();
    }
    return *this;
  }

  Column& operator=(Column&& other) noexcept {
    if (this != &other) {
      ColumnMemory::Add(-accounted_);
      codes_ = std::move(other.codes_);
      domain_ = std::move(other.domain_);
      accounted_ = other.accounted_;
      other.accounted_ = 0;
    }
    return *this;
  }

  ~Column() { ColumnMemory::Add(-accounted_); }

  /// Number of rows.
  uint32_t size() const { return static_cast<uint32_t>(codes_.size()); }

  /// Code at `row`.
  uint32_t code(uint32_t row) const {
    HAMLET_DCHECK(row < size(), "row %u out of range %u", row, size());
    return codes_[row];
  }

  /// Label at `row` (dictionary lookup).
  const std::string& label(uint32_t row) const {
    return domain_->label(code(row));
  }

  /// The whole code vector.
  const std::vector<uint32_t>& codes() const { return codes_; }

  /// The dictionary.
  const std::shared_ptr<Domain>& domain() const { return domain_; }

  /// Domain cardinality |D_F|.
  uint32_t domain_size() const { return domain_->size(); }

  /// Appends a code (must be < domain size).
  void Append(uint32_t code) {
    HAMLET_DCHECK(code < domain_->size(), "code %u out of domain %u", code,
                  domain_->size());
    codes_.push_back(code);
    accounted_ += static_cast<int64_t>(sizeof(uint32_t));
    ColumnMemory::Add(static_cast<int64_t>(sizeof(uint32_t)));
  }

  /// Returns a column with rows picked (with repetition allowed) by
  /// `rows`; shares this column's domain. The copy runs as chunked writes
  /// into the pre-sized output on the shared pool, at the run's width, in
  /// shards of at least kGatherRowGrain rows; every width produces the
  /// same column, so join materialization can parallelize freely.
  Column Gather(const std::vector<uint32_t>& rows) const;

  /// Number of *distinct* codes that actually occur (≤ domain_size()).
  /// The ROR derivation needs this (q_R: observed distinct values).
  uint32_t CountDistinct() const;

  /// Checks every code is within the domain.
  bool Validate() const;

 private:
  void Account() {
    const int64_t bytes =
        static_cast<int64_t>(codes_.size() * sizeof(uint32_t));
    ColumnMemory::Add(bytes - accounted_);
    accounted_ = bytes;
  }

  std::vector<uint32_t> codes_;
  std::shared_ptr<Domain> domain_;
  int64_t accounted_ = 0;  ///< Bytes this object has registered.
};

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_COLUMN_H_
