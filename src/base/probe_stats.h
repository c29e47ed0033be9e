#ifndef TSO_BASE_PROBE_STATS_H_
#define TSO_BASE_PROBE_STATS_H_

#include <cstdint>

namespace tso {

/// Deterministic counters for the query's probe path. A probe is one
/// NodePairSetView::Lookup; the §3.4 query probes its candidates from the
/// leaf layer up and stops at the first stored pair, so `probes` per query
/// is the 1-based position of that pair in the candidate sequence and
/// `hits` is exactly one per answered query. The counts depend only on the
/// oracle and the queries, never on the machine, which is what lets
/// bench/baselines/ci-tiny.json gate them with tolerance 0.
struct ProbeCounters {
  uint64_t probes = 0;      ///< node-pair records probed
  uint64_t hits = 0;        ///< probes that found their key
  uint64_t prefetches = 0;  ///< software prefetches issued by ancestor walks

  void Add(const ProbeCounters& o) {
    probes += o.probes;
    hits += o.hits;
    prefetches += o.prefetches;
  }
};

/// RAII scope that routes this thread's probe counters into `sink`. Scopes
/// nest (the previous sink is restored on destruction). When no scope is
/// active the hot path pays one thread-local load and a predicted branch.
class ProbeCounterScope {
 public:
  explicit ProbeCounterScope(ProbeCounters* sink) : prev_(Slot()) {
    Slot() = sink;
  }
  ~ProbeCounterScope() { Slot() = prev_; }

  ProbeCounterScope(const ProbeCounterScope&) = delete;
  ProbeCounterScope& operator=(const ProbeCounterScope&) = delete;

  /// The sink for the calling thread, or nullptr when counting is off.
  static ProbeCounters* Active() { return Slot(); }

 private:
  // Function-local rather than a static member: constant-initialized, so no
  // TLS init wrapper is involved (the out-of-line member form miscompiles
  // under gcc UBSan, which flags the wrapper's address as null).
  static ProbeCounters*& Slot() {
    static thread_local ProbeCounters* active = nullptr;
    return active;
  }
  ProbeCounters* prev_;
};

}  // namespace tso

#endif  // TSO_BASE_PROBE_STATS_H_
