#ifndef HAMLET_COMMON_MPSC_QUEUE_H_
#define HAMLET_COMMON_MPSC_QUEUE_H_

/// \file mpsc_queue.h
/// A bounded multi-producer single-consumer queue — the per-shard
/// request channel of the sharded serving data plane (serve/service.h).
///
/// Producers are any number of client threads; the consumer is one
/// dispatcher thread that owns the drain side. Two admission modes at
/// the push site:
///
///   - PushBlocking: waits for room (backpressure toward the caller) —
///     the classic bounded-FIFO behavior;
///   - TryPush(high_water): returns kOverloaded the moment the queue
///     holds `high_water` or more items, without blocking — the
///     load-shedding mode. The caller turns that into a typed
///     `StatusCode::kOverloaded` rejection so clients can back off
///     instead of piling onto a queue that is already beyond its SLO.
///
/// The consumer side supports exactly the dispatcher's drain pattern:
/// WaitNonEmpty blocks until an item is queued without taking it (so
/// the dispatcher can acquire its shard's run lock while the item still
/// shows in size()), PopHead takes the next item, and ExtractMatching
/// then lifts every queued item a predicate selects (up to a cap) out of
/// arrival order for micro-batch fusion, leaving the rest in place.
/// Stop() wakes everyone; after it, pushes fail with kStopped and the
/// consumer drains the backlog before WaitNonEmpty/PopHead return false,
/// so no accepted request is ever silently dropped.
///
/// The implementation is a mutex + two condvars around a deque, not a
/// lock-free ring. Only a busy shard queues at all — an idle one scores
/// on the caller's thread (serve/service.h) — so every hand-off through
/// here waits behind a pass already running, and the fusion scan needs
/// mid-queue extraction that ring buffers cannot offer. The win of the
/// sharded plane comes from having N independent instances of this
/// queue (one lock per shard instead of one global), not from shaving
/// the lock itself.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace hamlet {

/// Outcome of a push attempt (see \file block).
enum class MpscPushResult {
  kOk = 0,
  kOverloaded,  ///< TryPush: depth already at/above the high-water mark.
  kStopped,     ///< Queue stopped; the item was not accepted.
};

template <typename T>
class BoundedMpscQueue {
 public:
  /// `capacity` bounds the queue (>= 1; PushBlocking waits on it).
  explicit BoundedMpscQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Blocks until the queue has room, then appends. Fails only with
  /// kStopped.
  MpscPushResult PushBlocking(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      space_cv_.wait(lock,
                     [&] { return stopped_ || items_.size() < capacity_; });
      if (stopped_) return MpscPushResult::kStopped;
      items_.push_back(std::move(item));
    }
    nonempty_cv_.notify_one();
    return MpscPushResult::kOk;
  }

  /// Appends iff the current depth is below `high_water` (clamped to
  /// the capacity); otherwise rejects immediately with kOverloaded.
  /// Never blocks on a full queue.
  MpscPushResult TryPush(T item, size_t high_water) {
    if (high_water == 0 || high_water > capacity_) high_water = capacity_;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return MpscPushResult::kStopped;
      if (items_.size() >= high_water) return MpscPushResult::kOverloaded;
      items_.push_back(std::move(item));
    }
    nonempty_cv_.notify_one();
    return MpscPushResult::kOk;
  }

  /// Consumer: blocks until an item is queued and leaves it there.
  /// Returns false only when the queue is stopped AND fully drained.
  bool WaitNonEmpty() {
    std::unique_lock<std::mutex> lock(mu_);
    nonempty_cv_.wait(lock, [&] { return stopped_ || !items_.empty(); });
    return !items_.empty();
  }

  /// Consumer: blocks for the next item. Returns false only when the
  /// queue is stopped AND fully drained.
  bool PopHead(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    nonempty_cv_.wait(lock, [&] { return stopped_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    space_cv_.notify_one();
    return true;
  }

  /// Consumer: moves every queued item with pred(item) true — scanning
  /// in arrival order, up to `max_extract` — into `*out`, erasing them
  /// from the queue. Non-matching items keep their relative order.
  /// Returns the number extracted.
  template <typename Pred>
  size_t ExtractMatching(Pred&& pred, size_t max_extract,
                         std::vector<T>* out) {
    size_t extracted = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = items_.begin();
           it != items_.end() && extracted < max_extract;) {
        if (pred(*it)) {
          out->push_back(std::move(*it));
          it = items_.erase(it);
          ++extracted;
        } else {
          ++it;
        }
      }
    }
    if (extracted > 0) space_cv_.notify_all();
    return extracted;
  }

  /// Current depth (racy by nature; admission and diagnostics only).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Rejects future pushes and wakes every waiter. Items already
  /// accepted stay queued for PopHead to drain. Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    nonempty_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable nonempty_cv_;  ///< Consumer waits for work.
  std::condition_variable space_cv_;     ///< Producers wait for room.
  std::deque<T> items_;
  bool stopped_ = false;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_MPSC_QUEUE_H_
