#ifndef HAMLET_ML_TREE_GROWER_H_
#define HAMLET_ML_TREE_GROWER_H_

/// \file tree_grower.h
/// The one tree grower of both tree learners: DecisionTree grows one CART
/// tree, Gbt one regression tree per class and round. A split criterion
/// holds all that differs between them:
///
///   using Cell;                         one table entry
///   uint32_t row_width() const;         cells per code (CART: K, GBT: 1)
///   void Add(uint32_t item, Cell* row) const;   an item into its row
///   uint64_t Count(const Cell* row) const;      items a row holds
///   bool Pure(const Cell* total, uint64_t n) const;   purity stop
///   double Score(const Cell* total, uint64_t n) const;  parent term
///   double Gain(const Cell* left, const Cell* right, uint64_t nl,
///               uint64_t nr, double parent) const;
///   void Payload(const Cell* total, uint64_t n) const;  a node's values
///   void Leaf(int32_t node, const std::vector<uint32_t>& items) const;
///
/// A node's table for slot jj holds one row of row_width() cells per code
/// of the slot, flat [code * row_width + c]; its total is one such row
/// over all its items. Cells subtract with `-=`, elementwise.
///
/// Determinism contract: tables are built one slot per work item, items
/// added in ascending order, sharded by NodeGrain(node items); the best
/// split of a slot is its strictly greatest gain over ascending codes,
/// and slots reduce serially in ascending order against min_gain, so the
/// lowest slot, then the lowest code, wins exact ties. Items partition in
/// ascending order (left = code match), nodes are numbered left then
/// right in pre-order, and the larger child's tables are the parent's
/// minus the smaller child's, elementwise. The split scan and the
/// subtraction shard by the caller's table grain. The result is the same
/// bits at any width.

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "ml/decision_tree.h"

namespace hamlet {

template <typename Criterion>
struct TreeGrower {
  using Cell = typename Criterion::Cell;
  using Table = std::vector<Cell>;  // [code * row_width + c].

  /// One node's pending work: its items (indices into the gathered code
  /// columns), its per-slot tables and its total row.
  struct Node {
    std::vector<uint32_t> items;
    std::vector<Table> tables;
    Table total;
    uint32_t depth = 0;
  };

  const Criterion& criterion;
  const std::vector<std::vector<uint32_t>>& codes;  // Per slot, per item.
  const std::vector<uint32_t>& cards;
  uint32_t max_depth;
  uint64_t min_rows_split;
  double min_gain;
  uint32_t table_grain;  // TableGrain of the split scan and subtraction.

  std::vector<int32_t>* split_slot;
  std::vector<uint32_t>* split_code;
  std::vector<int32_t>* left;
  std::vector<int32_t>* right;

  /// The root over items [0, n) with the given total and tables.
  Node Root(uint32_t n, Table total, std::vector<Table> tables) const {
    Node root;
    root.items.resize(n);
    std::iota(root.items.begin(), root.items.end(), 0u);
    root.total = std::move(total);
    root.tables = std::move(tables);
    return root;
  }

  /// The root over items [0, n): its total from a serial pass in item
  /// order, its tables from BuildTables.
  Node Root(uint32_t n) const {
    Node root = Root(n, Table(criterion.row_width()), {});
    for (uint32_t i : root.items) criterion.Add(i, root.total.data());
    BuildTables(root.items, &root.tables);
    return root;
  }

  /// One pass over `items`, one slot per work item, each writing only its
  /// own table (the BuildSuffStats sharding contract).
  void BuildTables(const std::vector<uint32_t>& items,
                   std::vector<Table>* tables) const {
    const uint32_t d = static_cast<uint32_t>(codes.size());
    tables->resize(d);
    ParallelFor(
        d,
        [&](uint32_t jj) {
          const size_t width = criterion.row_width();
          Table& t = (*tables)[jj];
          t.assign(cards[jj] * width, Cell{});
          const std::vector<uint32_t>& col = codes[jj];
          for (uint32_t i : items) criterion.Add(i, &t[col[i] * width]);
        },
        NodeGrain(items.size()));
  }

  /// Appends `w` and its subtree in pre-order; returns its node index.
  /// Recursion is bounded by max_depth, and the parent's tables move into
  /// the larger child, so live table memory is O(depth * slots * table).
  int32_t Grow(Node&& w) {
    const int32_t idx = static_cast<int32_t>(split_slot->size());
    split_slot->push_back(-1);
    split_code->push_back(0);
    left->push_back(-1);
    right->push_back(-1);
    const uint64_t n_node = w.items.size();
    criterion.Payload(w.total.data(), n_node);

    const uint32_t d = static_cast<uint32_t>(codes.size());
    const size_t width = criterion.row_width();
    int32_t pick = -1;
    uint32_t pick_code = 0;
    if (w.depth < max_depth && n_node >= min_rows_split &&
        !criterion.Pure(w.total.data(), n_node)) {
      struct SlotBest {
        double gain = 0.0;
        uint32_t code = 0;
        bool valid = false;
      };
      std::vector<SlotBest> best(d);
      const double parent = criterion.Score(w.total.data(), n_node);
      ParallelFor(
          d,
          [&](uint32_t jj) {
            const Table& t = w.tables[jj];
            Table rest(width);
            SlotBest b;
            for (uint32_t v = 0; v < cards[jj]; ++v) {
              const Cell* row = &t[v * width];
              const uint64_t nl = criterion.Count(row);
              if (nl == 0 || nl == n_node) continue;
              for (size_t c = 0; c < width; ++c) {
                rest[c] = w.total[c];
                rest[c] -= row[c];
              }
              const double gain =
                  criterion.Gain(row, rest.data(), nl, n_node - nl, parent);
              if (!b.valid || gain > b.gain) b = {gain, v, true};
            }
            best[jj] = b;
          },
          table_grain);
      double pick_gain = min_gain;
      for (uint32_t jj = 0; jj < d; ++jj) {
        if (best[jj].valid && best[jj].gain > pick_gain) {
          pick = static_cast<int32_t>(jj);
          pick_gain = best[jj].gain;
          pick_code = best[jj].code;
        }
      }
    }
    if (pick < 0) {
      criterion.Leaf(idx, w.items);
      return idx;
    }

    const std::vector<uint32_t>& col = codes[pick];
    Node lw, rw;
    lw.depth = rw.depth = w.depth + 1;
    for (uint32_t i : w.items) {
      (col[i] == pick_code ? lw.items : rw.items).push_back(i);
    }
    w.items.clear();
    w.items.shrink_to_fit();

    // Child totals straight from the parent's table.
    const Cell* at = &w.tables[pick][pick_code * width];
    lw.total.assign(at, at + width);
    rw.total = w.total;
    for (size_t c = 0; c < width; ++c) rw.total[c] -= lw.total[c];

    // Subtraction trick: one pass builds the smaller child's tables, and
    // the sibling's are the parent's minus them.
    Node* small = lw.items.size() <= rw.items.size() ? &lw : &rw;
    Node* big = small == &lw ? &rw : &lw;
    BuildTables(small->items, &small->tables);
    big->tables = std::move(w.tables);
    ParallelFor(
        d,
        [&](uint32_t jj) {
          Table& bt = big->tables[jj];
          const Table& st = small->tables[jj];
          for (size_t x = 0; x < bt.size(); ++x) bt[x] -= st[x];
        },
        table_grain);

    const int32_t lidx = Grow(std::move(lw));
    const int32_t ridx = Grow(std::move(rw));
    (*split_slot)[idx] = pick;
    (*split_code)[idx] = pick_code;
    (*left)[idx] = lidx;
    (*right)[idx] = ridx;
    return idx;
  }
};

}  // namespace hamlet

#endif  // HAMLET_ML_TREE_GROWER_H_
