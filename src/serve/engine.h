#ifndef TSO_SERVE_ENGINE_H_
#define TSO_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/epoch.h"
#include "base/metrics.h"
#include "query/batch.h"
#include "query/engine.h"

namespace tso {

class DynamicSeOracle;

/// Coarse health of a ServeEngine, exported through Stats and the serving
/// CLI. kServing: fully healthy. kDegraded: the published pack opened with
/// one or more dead shards (intact shards answer normally, probes into a
/// dead shard return kUnavailable — see docs/robustness.md). kLameDuck:
/// draining for shutdown; every new query is shed with kUnavailable.
enum class ServeHealth { kServing, kDegraded, kLameDuck };

const char* ServeHealthName(ServeHealth health);

/// Engine-wide hardening knobs, fixed at construction. The defaults turn
/// every mechanism off, preserving the unhardened behaviour exactly.
struct ServeOptions {
  /// Admission control: maximum concurrently executing queries. A query
  /// arriving when `max_inflight` are already executing is shed immediately
  /// with kUnavailable (load-shedding beats queueing: the caller can retry
  /// against a replica, while a queue just converts overload into latency).
  /// 0 disables admission control.
  uint64_t max_inflight = 0;
  /// Deadline applied to queries that don't carry their own QueryOptions
  /// deadline. <= 0 disables.
  std::chrono::microseconds default_deadline{0};
  /// Transient Load() failures (kIoError, kUnavailable — e.g. a reload
  /// racing the writer's rename) are retried up to this many times with
  /// doubling backoff starting at `load_backoff`. Permanent failures
  /// (corrupt bytes -> kInvalidArgument) are never retried. 0 disables.
  uint32_t load_retries = 0;
  std::chrono::milliseconds load_backoff{10};
  /// When a pack fails a strict open, retry it degraded (checksums on,
  /// PackView::Options::allow_degraded): one corrupt shard quarantines that
  /// shard instead of taking the whole reload down. The engine reports
  /// kDegraded while such a pack is published.
  bool allow_degraded_packs = true;
};

/// Per-query knobs. Trailing defaulted parameter on every query method, so
/// existing call sites read unchanged.
struct QueryOptions {
  /// Time budget for this query, measured from query entry (time stalled
  /// at admission counts). A query that
  /// overruns it returns kDeadlineExceeded (batches stop between chunks;
  /// single queries that finish over budget report the overrun rather than
  /// return a result the caller has already given up on). <= 0 means use
  /// ServeOptions::default_deadline.
  std::chrono::microseconds deadline{0};
};

/// The serving tier: a long-lived engine that owns the currently published
/// oracle — a multi-shard pack (TSOPACK), a single flat oracle (TSOFLAT),
/// memory-mapped either way, or a hosted mutable generation (a
/// DynamicSeOracle absorbing POI churn) — and answers the full query
/// surface through the unified DistanceSource interface while allowing the
/// generation to be republished at any time.
///
/// Hot reload, the point of this class: Load() may be called while any
/// number of threads are mid-query. The swap is one atomic pointer
/// exchange; queries that began against the old mapping finish against it
/// (their epoch guard pins it — see base/epoch.h), queries that begin after
/// the swap see the new one, and the old mapping is munmap'ed only after
/// every reader of its epoch has exited. No stop-the-world, no failed
/// queries, no use-after-unmap — the serve_engine_test hammer runs this
/// under TSan.
///
/// Overload hardening (all opt-in via ServeOptions): bounded in-flight
/// admission, per-query deadlines, retry-with-backoff on transient load
/// failures, degraded-pack serving, and lame-duck draining. The shed and
/// deadline paths return kUnavailable / kDeadlineExceeded — retryable
/// statuses, distinct from every validation error.
///
/// Thread safety: all methods are safe to call concurrently. Load() calls
/// serialize among themselves internally. A thread must not call Load() or
/// the destructor from inside a query callback (it would wait on its own
/// guard). Destruction requires that no queries are in flight.
class ServeEngine {
 public:
  ServeEngine() = default;
  explicit ServeEngine(const ServeOptions& options) : options_(options) {}
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Opens `path` (oracle pack or flat oracle, detected by magic), fully
  /// validates it, and atomically publishes it, retiring the previously
  /// published state to the epoch domain. On failure the previous state
  /// stays published and serving — a bad file can never take the engine
  /// down. Transient failures are retried per ServeOptions::load_retries;
  /// a pack with a corrupt shard is re-opened degraded when
  /// allow_degraded_packs is set. Also the initial load. Error statuses
  /// carry the file path and the root cause.
  Status Load(const std::string& path);

  /// Publishes a mutable generation: each query pins the dynamic oracle's
  /// current snapshot and reads only it, so the engine serves consistent
  /// answers while writer threads insert/remove POIs and compactions
  /// republish the base underneath. Shares ownership with the
  /// caller's writers. A later Load()/Host() retires the generation like
  /// any other; the dynamic oracle itself outlives retirement as long as
  /// the caller holds its shared_ptr.
  Status Host(std::shared_ptr<DynamicSeOracle> dyn);

  /// True once a Load() has succeeded.
  bool loaded() const {
    return state_.load(std::memory_order_acquire) != nullptr;
  }

  /// Lame-duck drain: after EnterLameDuck() every new query is shed with
  /// kUnavailable while in-flight queries finish normally; once
  /// stats().inflight reaches 0 the engine can be destroyed without racing
  /// live queries. ExitLameDuck() resumes admission (e.g. a cancelled
  /// shutdown).
  void EnterLameDuck() { lame_duck_.store(true, std::memory_order_release); }
  void ExitLameDuck() { lame_duck_.store(false, std::memory_order_release); }

  /// ε-approximate POI-to-POI distance (routed across shards for a pack).
  StatusOr<double> Distance(uint32_t s, uint32_t t,
                            const QueryOptions& options = {}) const;

  /// Bulk distance batch (query/batch.h semantics; num_threads == 0 means
  /// hardware concurrency). One epoch guard, and for a hosted dynamic
  /// oracle one pinned snapshot, spans the whole batch. Under a deadline
  /// the batch runs in chunks and stops at the first chunk boundary past
  /// the budget.
  StatusOr<std::vector<double>> Batch(
      std::span<const std::pair<uint32_t, uint32_t>> queries,
      uint32_t num_threads = 0, const QueryOptions& options = {}) const;

  /// k nearest POIs, merged across shards; bit-identical to the monolithic
  /// oracle's KnnQuery. num_threads > 1 shards the candidate scan.
  StatusOr<std::vector<KnnResult>> Knn(uint32_t query, size_t k,
                                       uint32_t num_threads = 1,
                                       const QueryOptions& options = {}) const;

  /// Geodesic range query, merged across shards; bit-identical to the
  /// monolithic RangeQuery.
  StatusOr<std::vector<uint32_t>> Range(
      uint32_t query, double radius, uint32_t num_threads = 1,
      const QueryOptions& options = {}) const;

  struct Stats {
    uint64_t reloads = 0;       // successful Load()/Host() calls
    uint64_t queries = 0;       // query-surface calls received (incl. shed)
    uint64_t shed = 0;          // queries rejected by admission / lame duck
    uint64_t deadline_exceeded = 0;  // queries that overran their budget
    uint64_t load_failures = 0;      // Load() calls that failed after retries
    uint64_t load_retries = 0;       // individual retry attempts
    uint64_t inflight = 0;           // queries executing right now
    uint32_t num_shards = 0;    // 0 before the first load; 1 for flat files
    uint32_t degraded_shards = 0;    // dead shards in the published pack
    uint64_t num_pois = 0;      // live POIs for a dynamic generation
    size_t mapped_bytes = 0;    // current published mapping / resident bytes
    bool dynamic = false;       // current generation is a DynamicSeOracle
    ServeHealth health = ServeHealth::kServing;
    EpochDomain::Stats epoch;   // grace-period bookkeeping
  };
  Stats stats() const;

 private:
  /// One published generation: the mapping plus the views into it. Heap-
  /// allocated and immutable after construction; destroyed (dropping the
  /// mapping) by the epoch domain once its grace period elapses.
  struct State;

  /// Enters the epoch and loads the current state; null if nothing is
  /// published yet (reported to callers as FailedPrecondition).
  const State* Pinned() const {
    return state_.load(std::memory_order_acquire);
  }

  /// Admission control, shared by every query method: counts the query,
  /// sheds when lame-duck or over max_inflight, and on Ok leaves inflight_
  /// (and, under max_inflight, admitted_) incremented — the caller releases
  /// them via an RAII slot. The "serve.query" failpoint fires here, after
  /// the slot is taken, so a pause-armed failpoint deterministically holds
  /// an admission slot.
  Status Admit() const;
  /// Gives back what a successful Admit() took.
  void Release() const;
  /// RAII form of Release() held by every admitted query.
  class InflightSlot;

  /// One open-validate-publish attempt (the pre-hardening Load body).
  Status LoadOnce(const std::string& path);

  ServeOptions options_;
  std::atomic<State*> state_{nullptr};
  mutable EpochDomain epoch_;
  std::mutex load_mu_;  // serializes Load() calls, not queries
  std::atomic<bool> lame_duck_{false};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> load_failures_{0};
  std::atomic<uint64_t> load_retries_{0};
  // Every query writes queries_ and inflight_, so they are per-thread
  // shards: concurrent readers never write a cache line another core also
  // writes. Exact admission needs one shared count, so admitted_ is only
  // touched when max_inflight > 0. shed_ and deadline_exceeded_ see only
  // rejected queries.
  mutable ShardedCounter queries_;
  mutable ShardedCounter inflight_;
  mutable std::atomic<uint64_t> admitted_{0};
  mutable std::atomic<uint64_t> shed_{0};
  mutable std::atomic<uint64_t> deadline_exceeded_{0};
};

}  // namespace tso

#endif  // TSO_SERVE_ENGINE_H_
