#ifndef TSO_BASE_METRICS_H_
#define TSO_BASE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tso {

/// A counter that many threads bump on a hot path without sharing a cache
/// line: each thread adds into one of kCells cache-line-aligned cells, and
/// readers sum the cells. A thread is given its cell round robin on its
/// first Add (threads beyond kCells share cells, still exactly). Add and
/// Sub are relaxed read-modify-writes on the calling thread's cell, so a
/// decrement may wrap that cell modulo 2^64; the sum over all cells is
/// exact whenever no Add/Sub is in progress. A Sum taken concurrently with
/// updates is a moment-by-moment mix of cells — fine for monitoring,
/// wrong for admission decisions, which need one shared atomic.
class ShardedCounter {
 public:
  static constexpr size_t kCells = 16;

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[ThreadCell()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Sub(uint64_t n = 1) {
    cells_[ThreadCell()].value.fetch_sub(n, std::memory_order_relaxed);
  }

  uint64_t Sum() const {
    uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  /// The calling thread's cell index, shared by every ShardedCounter.
  /// Both statics are constant-initialized, so no TLS init wrapper or
  /// guard runs on the hot path (see ProbeCounterScope::Slot).
  static size_t ThreadCell() {
    static constexpr uint32_t kUnassigned = ~uint32_t{0};
    static std::atomic<uint32_t> next{0};
    static thread_local uint32_t cell = kUnassigned;
    if (cell == kUnassigned) {
      cell = next.fetch_add(1, std::memory_order_relaxed) % kCells;
    }
    return cell;
  }

  std::array<Cell, kCells> cells_{};
};

}  // namespace tso

#endif  // TSO_BASE_METRICS_H_
