// Load generators over the tsod wire and the layer-by-layer replay used by
// the traced run.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dyn/dynamic_oracle.h"
#include "harness.h"
#include "net/server.h"
#include "query/engine.h"
#include "serve/engine.h"

namespace perfbench {

/// True when `d` is the right answer for (s, t). Called from load-generator threads.
using DistanceCheck = std::function<bool(uint32_t s, uint32_t t, double d)>;

struct ClosedLoopResult {
  uint64_t completed = 0;
  double seconds = 0;
};

/// `conns` connections, one thread each, keep `window` Distance RPCs in
/// flight until `seconds` pass (or each connection completed `max_per_conn`,
/// if nonzero), then drain. Every answer goes through `check`.
ClosedLoopResult PipelinedDistance(uint16_t port, uint32_t conns,
                                   uint32_t window, double seconds,
                                   uint64_t max_per_conn,
                                   const std::vector<uint32_t>& ids,
                                   uint64_t seed, const DistanceCheck& check,
                                   Report* rep);

struct OpenLoopResult {
  Samples latency_ns;   // response time minus due time
  Samples lateness_ns;  // send time minus due time
};

/// Open loop: Distance RPCs fall due at a fixed total `rate` (per second),
/// spread evenly over `conns` connections with one thread each, for
/// `seconds`; sends never wait for answers. Latency counts from the due
/// time. Spans go to `log` (one per request) when it is enabled.
OpenLoopResult OpenLoopDistance(uint16_t port, uint32_t conns, double rate,
                                double seconds,
                                const std::vector<uint32_t>& ids,
                                uint64_t seed, const DistanceCheck& check,
                                SpanLog* log, Report* rep);

/// What the layer replay runs against: the workload's serving stack, a
/// query-layer view of the same oracle, and a dynamic layer over it.
struct LayerTarget {
  tso::ServeEngine* engine = nullptr;
  tso::TsodServer* server = nullptr;
  uint16_t port = 0;
  const tso::DistanceSource* source = nullptr;
  tso::DynamicSeOracle* dyn = nullptr;
  std::vector<uint32_t> ids;  // live ids the replayed requests draw from
  double radius = 0;
  double offered_rate = 0;
  uint64_t seed = 1;
};

/// Replays one request stream through each layer from the outside — the
/// wire (net + everything below), ServeEngine (serve + below), and the
/// DistanceSource (query + base, under a ProbeCounterScope) — and adds the
/// net / serve / query / base / dyn pin metrics, the self times derived
/// from them, and the layer shares to `rep`. Answers of the three paths
/// are bit-compared; mismatches count as failed operations.
void ReplayLayers(const LayerTarget& target, SpanLog* log, Report* rep);

/// Writes `spans` as JSON lines to `path`.
void WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
