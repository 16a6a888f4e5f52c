#include "relational/column.h"

#include <atomic>

#include "common/parallel_for.h"

namespace hamlet {

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

}  // namespace

int64_t ColumnMemory::LiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

int64_t ColumnMemory::PeakBytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

void ColumnMemory::ResetPeak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

void ColumnMemory::Add(int64_t bytes) {
  if (bytes == 0) return;
  const int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (bytes > 0) {
    int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_bytes.compare_exchange_weak(peak, live,
                                               std::memory_order_relaxed)) {
    }
  }
}

Column Column::Gather(const std::vector<uint32_t>& rows) const {
  const uint32_t n = static_cast<uint32_t>(rows.size());
  std::vector<uint32_t> out(n);
  // Each index writes only its own slot, so the result is identical at
  // any width (the pool's determinism contract).
  ParallelFor(
      n, [&](uint32_t i) { out[i] = code(rows[i]); }, kGatherRowGrain);
  return Column(std::move(out), domain_);
}

uint32_t Column::CountDistinct() const {
  std::vector<bool> seen(domain_->size(), false);
  uint32_t distinct = 0;
  for (uint32_t c : codes_) {
    if (!seen[c]) {
      seen[c] = true;
      ++distinct;
    }
  }
  return distinct;
}

bool Column::Validate() const {
  for (uint32_t c : codes_) {
    if (c >= domain_->size()) return false;
  }
  return true;
}

}  // namespace hamlet
