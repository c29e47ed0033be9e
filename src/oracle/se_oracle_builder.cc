#include "oracle/se_oracle_builder.h"

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/logging.h"
#include "base/timer.h"
#include "oracle/compressed_tree.h"
#include "oracle/node_pair_set.h"
#include "oracle/oracle_serde.h"

namespace tso {
namespace {

/// Mutex-striped distance memo shared by the parallel WSPD workers (replaces
/// the single-threaded unordered_map fallback path). Keys are PairKey of the
/// ordered POI ids.
class ShardedDistMemo {
 public:
  bool Lookup(uint64_t key, double* out) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    *out = it->second;
    return true;
  }

  void Insert(uint64_t key, double value) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.emplace(key, value);
  }

 private:
  static constexpr size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, double> map;
  };
  Shard& shard(uint64_t key) {
    return shards_[(key * 0x9e3779b97f4a7c15ULL) >> 58];
  }
  Shard shards_[kShards];
};

/// Per-layer lookup structures shared by both enhanced-edge pipelines.
struct EnhancedLayer {
  double reach = 0.0;                // candidate-pair distance cap
  std::vector<SurfacePoint> center_points;  // aligned with layer_nodes
  std::unique_ptr<XyGrid> grid;      // x-y prefilter over the centers
  std::unordered_map<uint32_t, uint32_t> center_to_index;  // POI -> index
};

/// Emits every enhanced edge of `layer` anchored at its center index `i`,
/// reading per-source distances from the solver's last sweep. The grid
/// prefilter is conservative (geodesic >= planar distance), so the emitted
/// set is exactly the pairs with d <= reach regardless of the sweep that
/// produced the labels.
void EmitLayerEdges(const EnhancedLayer& layer,
                    const std::vector<uint32_t>& nodes, uint32_t i,
                    const GeodesicSolver& s, uint32_t source_index,
                    std::vector<uint32_t>* candidates,
                    std::vector<NodePair>* out) {
  const SurfacePoint& center = layer.center_points[i];
  layer.grid->Query(center.pos.x, center.pos.y, layer.reach, candidates);
  for (uint32_t j : *candidates) {
    if (j == i) continue;
    const double d =
        s.BatchPointDistance(source_index, layer.center_points[j]);
    if (d <= layer.reach) out->push_back({nodes[i], nodes[j], d});
  }
}

using EdgeEntries = std::vector<NodePair>;

/// Runs `process(solver, index, out)` for indices [0, count): serially on
/// the injected solver when a worker pool would not pay off, otherwise
/// sharded over `num_threads` workers (each with a factory-created solver),
/// concatenating the per-worker entry shards in worker order. Entry order
/// is scheduling-dependent in the parallel case; consumers only depend on
/// the entry set.
Status ShardEnhancedWork(
    GeodesicSolver& solver, const SolverFactory& factory,
    uint32_t num_threads, size_t count,
    const std::function<Status(GeodesicSolver&, uint32_t, EdgeEntries&)>&
        process,
    EdgeEntries* entries) {
  if (num_threads <= 1 || count < 2 * num_threads) {
    for (uint32_t i = 0; i < count; ++i) {
      TSO_RETURN_IF_ERROR(process(solver, i, *entries));
    }
    return Status::Ok();
  }
  std::atomic<uint32_t> next{0};
  std::vector<EdgeEntries> shards(num_threads);
  std::vector<Status> shard_status(num_threads);
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t]() {
      std::unique_ptr<GeodesicSolver> local = factory();
      if (local == nullptr) {
        shard_status[t] = Status::Internal("solver factory returned null");
        return;
      }
      while (true) {
        const uint32_t i = next.fetch_add(1);
        if (i >= count) break;
        Status status = process(*local, i, shards[t]);
        if (!status.ok()) {
          shard_status[t] = status;
          break;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& status : shard_status) TSO_RETURN_IF_ERROR(status);
  for (EdgeEntries& shard : shards) {
    entries->insert(entries->end(), shard.begin(), shard.end());
  }
  return Status::Ok();
}

/// Build-time enhanced-edge index (§3.5 Steps 2–3): for each pair of
/// same-layer partition-tree nodes with d(c_O, c_O') <= l·r_O (l = 8/ε+10),
/// the exact center distance, as a NodePair of ordered original-tree node
/// ids, indexed by the same pilot hash as the oracle's own pair set. Its id
/// space is the original tree, which is larger than the compressed one, so
/// its keys are 8 bytes wide once that tree has more than 65,535 nodes.
StatusOr<NodePairSet> BuildEnhancedEdges(
    const PartitionTree& tree, const std::vector<SurfacePoint>& pois,
    GeodesicSolver& solver, const SeOracleOptions& options,
    uint32_t num_threads, SeBuildStats* st) {
  const double l = 8.0 / options.epsilon + 10.0;
  // Sources per sweep: the requested batch, clamped to what the solver's
  // kernel can tag (1 for solvers without native multi-source support).
  const uint32_t batch_limit =
      std::max(1u, std::min(std::max(options.ssad_batch, 1u),
                            solver.max_batch()));
  st->ssad_batch_used = batch_limit;
  const int height = tree.height();

  // Candidate lookup per layer. Layers with < 2 nodes have no same-layer
  // pairs; layer sizes are non-decreasing, so eligible layers are a suffix.
  std::vector<EnhancedLayer> layers(height + 1);
  for (int m = 0; m <= height; ++m) {
    const std::vector<uint32_t>& nodes = tree.layer_nodes(m);
    if (nodes.size() < 2) continue;
    EnhancedLayer& layer = layers[m];
    // All POIs lie within r_0 of the root center, so center distances never
    // exceed 2·r_0; capping the expansion there loses no enhanced edge.
    layer.reach = std::min(l * tree.LayerRadius(m),
                           2.0 * tree.root_radius() * (1.0 + 1e-9));
    layer.center_points.reserve(nodes.size());
    for (uint32_t id : nodes) {
      layer.center_points.push_back(pois[tree.node(id).center]);
    }
    layer.grid = std::make_unique<XyGrid>(layer.center_points, layer.reach);
    layer.center_to_index.reserve(nodes.size());
    for (uint32_t i = 0; i < nodes.size(); ++i) {
      layer.center_to_index.emplace(tree.node(nodes[i]).center, i);
    }
  }

  // A center persists to every deeper layer (pc-priority selection + the
  // Separation property), so both pipelines sweep each *distinct* center,
  // not each tree node, and harvest its labels for every layer it centers:
  // the layers from its top layer (where it first appears) down.
  struct CenterItem {
    int top_layer;
    uint32_t center;
  };
  std::vector<CenterItem> items;  // top layer first
  std::vector<uint8_t> seen(pois.size(), 0);
  for (int m = 0; m <= height; ++m) {
    if (layers[m].grid == nullptr) continue;
    for (uint32_t id : tree.layer_nodes(m)) {
      const uint32_t center = tree.node(id).center;
      if (seen[center] != 0) continue;
      seen[center] = 1;
      items.push_back({m, center});
    }
  }
  auto emit_center = [&](int m, uint32_t center, const GeodesicSolver& s,
                         uint32_t source_index,
                         std::vector<uint32_t>* candidates, EdgeEntries* out) {
    const auto it = layers[m].center_to_index.find(center);
    TSO_CHECK(it != layers[m].center_to_index.end());
    EmitLayerEdges(layers[m], tree.layer_nodes(m), it->second, s,
                   source_index, candidates, out);
  };

  EdgeEntries entries;

  if (batch_limit == 1) {
    // Per-center pipeline (no multi-source batching): one work item per
    // distinct center. It runs at the center's deepest (smallest) reach,
    // then extends layer by layer up to its top layer, harvesting each layer
    // on the way. Extend leaves the state of a fresh run at that reach, so
    // every layer reads exactly a per-node SSAD's labels; where the reach
    // does not grow (the capped top layers) nothing runs at all. Items go
    // top layer first so the whole-mesh sweeps start first.
    auto process_center = [&](GeodesicSolver& s, uint32_t k,
                              EdgeEntries& out) -> Status {
      const CenterItem& item = items[k];
      const SurfacePoint& source = pois[item.center];
      std::vector<uint32_t> candidates;
      double swept = -1.0;  // bound of the last sweep; none yet
      for (int m = height; m >= item.top_layer; --m) {
        const double bound = layers[m].reach * (1.0 + 1e-9);
        if (swept < 0.0) {
          SsadOptions opts;
          opts.radius_bound = bound;
          TSO_RETURN_IF_ERROR(s.Run(source, opts));
        } else if (bound != swept) {
          TSO_RETURN_IF_ERROR(s.Extend(source, bound));
        }
        swept = bound;
        emit_center(m, item.center, s, 0, &candidates, &out);
      }
      return Status::Ok();
    };
    TSO_RETURN_IF_ERROR(ShardEnhancedWork(
        solver, options.parallel_solver_factory, num_threads, items.size(),
        process_center, &entries));
    st->ssad_runs += items.size();
    st->enhanced_sweeps += items.size();
  } else {
    // Batched pipeline. Two amortizations, both preserving the exact entry
    // set and bit-identical distances:
    //  * cross-layer sweep dedup — each distinct center sweeps once at its
    //    topmost (largest) reach and every layer it centers is harvested
    //    from that one sweep (a bounded Dijkstra's labels within the bound
    //    do not depend on the bound);
    //  * multi-source group sweeps — sweeps that start at the same topmost
    //    layer share one kernel sweep per spatially-clustered batch.
    struct SweepGroup {
      int top_layer;                 // sweep radius = reach here
      std::vector<uint32_t> centers;  // the centers whose top layer it is
      std::vector<std::vector<uint32_t>> batches;
    };
    std::vector<SweepGroup> groups;
    size_t total_batches = 0;
    for (size_t k = 0; k < items.size();) {
      SweepGroup group;
      group.top_layer = items[k].top_layer;
      std::vector<SurfacePoint> group_points;
      for (; k < items.size() && items[k].top_layer == group.top_layer; ++k) {
        group.centers.push_back(items[k].center);
        group_points.push_back(pois[items[k].center]);
      }
      // Sources sharing a sweep must be tight relative to the search
      // radius: a spread-comparable-to-reach batch degenerates into
      // label-correcting churn.
      group.batches = XyClusteredBatches(
          group_points, batch_limit, 0.1 * layers[group.top_layer].reach);
      total_batches += group.batches.size();
      groups.push_back(std::move(group));
    }
    st->ssad_runs += items.size();
    st->enhanced_sweeps += total_batches;

    // Flatten for the work queue: one group sweep per batch, harvested for
    // every layer from the batch's top layer down. Batches are independent,
    // so shard them over workers.
    std::vector<std::pair<const SweepGroup*, const std::vector<uint32_t>*>>
        work;
    work.reserve(total_batches);
    for (const SweepGroup& group : groups) {
      for (const std::vector<uint32_t>& batch : group.batches) {
        work.emplace_back(&group, &batch);
      }
    }
    auto process_batch = [&](GeodesicSolver& s, const SweepGroup& group,
                             const std::vector<uint32_t>& batch,
                             EdgeEntries& out) -> Status {
      std::vector<SurfacePoint> sources;
      sources.reserve(batch.size());
      for (uint32_t b : batch) sources.push_back(pois[group.centers[b]]);
      SsadOptions opts;
      opts.radius_bound = layers[group.top_layer].reach * (1.0 + 1e-9);
      TSO_RETURN_IF_ERROR(s.SolveBatch(sources, opts));
      std::vector<uint32_t> candidates;
      for (uint32_t b = 0; b < batch.size(); ++b) {
        const uint32_t center = group.centers[batch[b]];
        for (int m = group.top_layer; m <= height; ++m) {
          emit_center(m, center, s, b, &candidates, &out);
        }
      }
      return Status::Ok();
    };

    TSO_RETURN_IF_ERROR(ShardEnhancedWork(
        solver, options.parallel_solver_factory, num_threads, work.size(),
        [&](GeodesicSolver& s, uint32_t i, EdgeEntries& out) {
          return process_batch(s, *work[i].first, *work[i].second, out);
        },
        &entries));
  }

  return NodePairSet::FromPairs(entries,
                                static_cast<uint32_t>(tree.num_nodes()));
}

}  // namespace

StatusOr<SeOracle> SeOracleBuilder::Build(std::vector<SurfacePoint> pois) {
  const SeOracleOptions& options = options_;
  const TerrainMesh& mesh = mesh_;
  GeodesicSolver& solver = solver_;
  TSO_RETURN_IF_ERROR(ValidateEpsilon(options.epsilon));
  if (pois.empty()) return Status::InvalidArgument("no POIs");
  WallTimer total_timer;
  SeBuildStats& st = stats_;
  st = SeBuildStats{};

  Rng rng(options.seed);

  // One thread count for every parallel phase: tree speculation, enhanced
  // edges, and the WSPD recursion.
  const uint32_t num_threads =
      options.parallel_solver_factory == nullptr
          ? 1
          : (options.num_threads != 0
                 ? options.num_threads
                 : std::max(1u, std::thread::hardware_concurrency()));
  st.threads_used = num_threads;

  // --- Step 1: partition tree + compressed tree ---
  WallTimer phase_timer;
  PartitionTreeStats tree_stats;
  PartitionTreeOptions tree_options;
  if (num_threads > 1) {
    tree_options.solver_factory = options.parallel_solver_factory;
    tree_options.num_threads = num_threads;
  }
  StatusOr<PartitionTree> tree =
      PartitionTree::Build(mesh, pois, solver, options.selection, rng,
                           &tree_stats, tree_options);
  if (!tree.ok()) return tree.status();
  st.tree_seconds = phase_timer.ElapsedSeconds();
  st.ssad_runs += tree_stats.ssad_runs;
  st.tree_speculative_ssads = tree_stats.speculative_ssads;
  st.tree_wasted_ssads = tree_stats.wasted_ssads;
  st.height = tree->height();

  double epsilon = options.epsilon;
  CompressedTree compressed = CompressedTree::FromPartitionTree(*tree);

  // --- Steps 2+3 (efficient only): enhanced edges + perfect hash ---
  phase_timer.Reset();
  NodePairSet enhanced;
  if (options.construction == ConstructionMethod::kEfficient &&
      pois.size() > 1) {
    StatusOr<NodePairSet> built = BuildEnhancedEdges(
        *tree, pois, solver, options, num_threads, &st);
    if (!built.ok()) return built.status();
    enhanced = std::move(*built);
    st.enhanced_edges = enhanced.size();
  }
  st.enhanced_seconds = phase_timer.ElapsedSeconds();

  // --- Step 4: node pair set ---
  phase_timer.Reset();
  // Naive per-pair distances (used by SE-Naive for every pair, and by the
  // efficient method only as a guarded fallback) go through a sharded memo
  // and per-worker solvers, so the WSPD recursion can run multi-threaded.
  const PartitionTree& orig_tree = *tree;
  ShardedDistMemo memo;
  std::atomic<size_t> naive_ssad_runs{0};
  std::atomic<size_t> distance_fallbacks{0};
  std::vector<std::unique_ptr<GeodesicSolver>> worker_solvers(num_threads);

  // Builds worker t's center-distance function. Worker 0's may also be used
  // by the calling thread for seed expansion (never concurrently).
  auto make_center_dist =
      [&](uint32_t t) -> std::function<double(uint32_t, uint32_t)> {
    auto naive_dist = [&, t](uint32_t ca, uint32_t cb) -> double {
      const uint64_t key = PairKey(std::min(ca, cb), std::max(ca, cb));
      double d;
      if (memo.Lookup(key, &d)) return d;
      GeodesicSolver* s = &solver;
      if (num_threads > 1) {
        if (worker_solvers[t] == nullptr) {
          worker_solvers[t] = options.parallel_solver_factory();
          TSO_CHECK(worker_solvers[t] != nullptr);
        }
        s = worker_solvers[t].get();
      }
      StatusOr<double> computed = s->PointToPoint(pois[ca], pois[cb]);
      naive_ssad_runs.fetch_add(1, std::memory_order_relaxed);
      TSO_CHECK(computed.ok());
      memo.Insert(key, *computed);
      return *computed;
    };
    if (options.construction == ConstructionMethod::kNaive) {
      return [naive_dist](uint32_t ca, uint32_t cb) -> double {
        if (ca == cb) return 0.0;
        return naive_dist(ca, cb);
      };
    }
    return [&, naive_dist](uint32_t ca, uint32_t cb) -> double {
      if (ca == cb) return 0.0;
      // Walk the original-tree leaf->root paths in lockstep (one node per
      // layer) and probe the enhanced-edge hash; Lemma 4 guarantees a hit
      // whose endpoints carry exactly these centers.
      uint32_t u = orig_tree.leaf_of_poi(ca);
      uint32_t v = orig_tree.leaf_of_poi(cb);
      while (u != kInvalidId && v != kInvalidId) {
        double d;
        if (enhanced.Lookup(u, v, &d) && orig_tree.node(u).center == ca &&
            orig_tree.node(v).center == cb) {
          return d;
        }
        u = orig_tree.node(u).parent;
        v = orig_tree.node(v).parent;
      }
      distance_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return naive_dist(ca, cb);
    };
  };

  NodePairSetStats pair_stats;
  StatusOr<NodePairSet> pairs{Status::Internal("unset")};
  if (num_threads > 1) {
    NodePairParallelOptions par;
    par.num_threads = num_threads;
    par.make_center_dist = make_center_dist;
    pairs = NodePairSet::Generate(compressed, options.epsilon, par,
                                  &pair_stats);
  } else {
    pairs = NodePairSet::Generate(compressed, options.epsilon,
                                  make_center_dist(0), &pair_stats);
  }
  st.ssad_runs += naive_ssad_runs.load();
  st.distance_fallbacks += distance_fallbacks.load();
  if (!pairs.ok()) return pairs.status();
  st.pair_gen_seconds = phase_timer.ElapsedSeconds();
  st.node_pairs = pair_stats.pairs_final;
  st.pairs_considered = pair_stats.pairs_considered;

  // The owned build structures end here: the oracle is their flat-format
  // bytes, queried exactly as a mapped file of them would be.
  StatusOr<OracleView> view = OracleView::FromBytes(SerializeSeOracleFlat(
      epsilon, pois, compressed.view(), pairs->view()));
  if (!view.ok()) return view.status();
  st.total_seconds = total_timer.ElapsedSeconds();
  return SeOracle(std::move(*view));
}

}  // namespace tso
