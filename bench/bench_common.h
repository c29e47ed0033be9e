#ifndef TSO_BENCH_BENCH_COMMON_H_
#define TSO_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "base/timer.h"
#include "geodesic/mmp_solver.h"
#include "oracle/se_oracle.h"
#include "terrain/dataset.h"

namespace tso::bench {

/// Scale knob for the whole harness: TSO_BENCH_SCALE = tiny | small | full.
/// "small" is the default; "full" runs the larger stand-ins (closer to the
/// paper's regime, slower). Any other value exits 2 and names it, so a typo
/// cannot run a different scale.
inline double ScaleFactor() {
  const char* env = std::getenv("TSO_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const std::string s = env;
  if (s == "tiny") return 0.25;
  if (s == "small") return 1.0;
  if (s == "full") return 4.0;
  std::fprintf(stderr,
               "TSO_BENCH_SCALE=%s: unknown scale (tiny, small, full)\n", env);
  std::exit(2);
}

inline uint32_t Scaled(uint32_t base) {
  return static_cast<uint32_t>(base * ScaleFactor());
}

/// The single producer of benchmark output: one `BENCH {...}` line per
/// measurement, built key by key. The CI perf gate (tools/bench_compare.py
/// against bench/baselines/ci-tiny.json and ci-paper.json) consumes these
/// lines and docs/bench-json.md documents the schema — key names are part
/// of the gated contract, so add keys freely but do not rename them.
///
///   BenchJson("build").Str("solver", name).Int("threads", t)
///       .Num("seconds", secs, 6).Emit();
class BenchJson {
 public:
  explicit BenchJson(const char* bench) {
    os_ << "BENCH {\"bench\":\"" << bench << '"';
  }

  BenchJson& Str(const char* key, const char* value) {
    os_ << ",\"" << key << "\":\"" << value << '"';
    return *this;
  }

  BenchJson& Int(const char* key, uint64_t value) {
    os_ << ",\"" << key << "\":" << value;
    return *this;
  }

  /// Fixed-point double with `digits` fractional digits (seconds want 6,
  /// QPS 1, ratios 3).
  BenchJson& Num(const char* key, double value, int digits) {
    os_ << ",\"" << key << "\":" << std::fixed << std::setprecision(digits)
        << value;
    return *this;
  }

  void Emit() {
    os_ << "}";
    std::cout << os_.str() << "\n";
    std::cout.flush();
  }

 private:
  std::ostringstream os_;
};

/// Random P2P query pairs (the paper's query generation, §5.1).
inline std::vector<std::pair<uint32_t, uint32_t>> MakeQueryPairs(
    size_t n, size_t count, Rng& rng) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(n));
    const uint32_t t = static_cast<uint32_t>(rng.Uniform(n));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// Standard options for a parallel SE build over `mesh` with the exact
/// solver (what bench_paper builds its SE rows with).
inline SeOracleOptions ParallelSeOptions(const TerrainMesh& mesh, double eps,
                                         uint64_t seed) {
  SeOracleOptions options;
  options.epsilon = eps;
  options.seed = seed;
  options.parallel_solver_factory = [&mesh]() {
    return std::unique_ptr<GeodesicSolver>(new MmpSolver(mesh));
  };
  return options;
}

}  // namespace tso::bench

#endif  // TSO_BENCH_BENCH_COMMON_H_
