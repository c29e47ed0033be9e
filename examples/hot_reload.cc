// Hot reload in the serving tier: a ServeEngine answers queries from a
// memory-mapped oracle pack while the file is republished underneath it —
// the production shape for updating a deployed oracle (new POIs, new
// epsilon, resharded pack) with zero downtime. Reader threads never see a
// failed query or a torn generation: each query pins the epoch of the
// mapping it started on, and the old mapping is unmapped only after its
// last reader leaves (src/base/epoch.h).

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "geodesic/dijkstra_solver.h"
#include "oracle/pack_view.h"
#include "oracle/se_oracle.h"
#include "serve/engine.h"
#include "terrain/dataset.h"

int main() {
  using namespace tso;

  // Offline: build one oracle, freeze it as two differently-sharded packs.
  // (In production these would be successive releases of the dataset; using
  // one oracle keeps the answers comparable across reloads.)
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 500, 60, 42);
  if (!ds.ok()) return 1;
  DijkstraSolver solver(*ds->mesh);
  SeOracleOptions options;
  options.epsilon = 0.25;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options);
  if (!oracle.ok()) return 1;

  const std::string blue = "serving_blue.tsop";
  const std::string green = "serving_green.tsop";
  PackBuildOptions pack;
  pack.num_shards = 2;
  if (!SaveOraclePack(*oracle, pack, blue).ok()) return 1;
  pack.num_shards = 4;
  pack.policy = PackPolicy::kGeo;
  if (!SaveOraclePack(*oracle, pack, green).ok()) return 1;

  // Online: publish the first generation, then hammer it from reader
  // threads while the main thread flips between the two files.
  ServeEngine engine;
  if (!engine.Load(blue).ok()) return 1;
  std::printf("serving %s (%u shards)\n", blue.c_str(),
              engine.stats().num_shards);

  const uint32_t n = static_cast<uint32_t>(oracle->num_pois());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> readers;
  for (int id = 0; id < 4; ++id) {
    readers.emplace_back([&, id]() {
      uint32_t q = static_cast<uint32_t>(id);
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<double> d = engine.Distance(q % n, (q * 7 + 1) % n);
        if (d.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        ++q;
      }
    });
  }

  // 100 blue/green flips, mid-traffic. Each Load maps and validates the
  // file, atomically swaps it in, and retires the old mapping to the epoch
  // domain; in-flight queries finish on the generation they started on.
  for (int flip = 0; flip < 100; ++flip) {
    const std::string& next = (flip % 2 == 0) ? green : blue;
    if (!engine.Load(next).ok()) return 1;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  const ServeEngine::Stats stats = engine.stats();
  std::printf(
      "flipped 100 times under load: %llu queries served, %llu failed; "
      "%llu generations retired, %llu reclaimed, %zu pending\n",
      static_cast<unsigned long long>(served.load()),
      static_cast<unsigned long long>(failed.load()),
      static_cast<unsigned long long>(stats.epoch.retired),
      static_cast<unsigned long long>(stats.epoch.reclaimed),
      stats.epoch.pending);

  // The current generation still answers bit-identically to the builder's
  // in-memory oracle.
  const bool same = *engine.Distance(1, 2) == *oracle->Distance(1, 2);
  std::printf("served == in-memory: %s\n", same ? "yes" : "NO");
  std::remove(blue.c_str());
  std::remove(green.c_str());
  return (same && failed.load() == 0) ? 0 : 1;
}
