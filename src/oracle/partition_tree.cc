#include "oracle/partition_tree.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/logging.h"
#include "base/timer.h"

namespace tso {

XyGrid::XyGrid(const std::vector<SurfacePoint>& points, double cell)
    : cell_(std::max(cell, 1e-9)) {
  for (uint32_t i = 0; i < points.size(); ++i) {
    cells_[Pack(Coord(points[i].pos.x), Coord(points[i].pos.y))].push_back(i);
  }
}

void XyGrid::Query(double x, double y, double radius,
                   std::vector<uint32_t>* out) const {
  out->clear();
  const int64_t cx0 = Coord(x - radius);
  const int64_t cx1 = Coord(x + radius);
  const int64_t cy0 = Coord(y - radius);
  const int64_t cy1 = Coord(y + radius);
  for (int64_t cy = cy0; cy <= cy1; ++cy) {
    for (int64_t cx = cx0; cx <= cx1; ++cx) {
      auto it = cells_.find(Pack(cx, cy));
      if (it == cells_.end()) continue;
      for (uint32_t id : it->second) out->push_back(id);
    }
  }
}

int64_t XyGrid::Coord(double v) const {
  return static_cast<int64_t>(std::floor(v / cell_));
}

uint64_t XyGrid::Pack(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
         static_cast<uint32_t>(cy);
}

std::vector<std::vector<uint32_t>> XyClusteredBatches(
    const std::vector<SurfacePoint>& points, size_t max_batch,
    double max_spread) {
  const size_t limit = std::max<size_t>(max_batch, 1);
  // Cell width targeting ~max_batch points per cell (so chunks of the
  // cell-sorted order stay within one or two adjacent cells): sqrt of
  // max_batch times the bounding-box area per point.
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    const Vec3& p = points[i].pos;
    if (i == 0) {
      min_x = max_x = p.x;
      min_y = max_y = p.y;
    } else {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
  }
  const double area = std::max((max_x - min_x) * (max_y - min_y), 1e-12);
  const double width = std::max(
      std::sqrt(area * static_cast<double>(limit) /
                static_cast<double>(std::max<size_t>(points.size(), 1))),
      1e-9);
  // Sort indices by cell coordinate (stably: ties keep input order), then
  // chunk consecutive runs. No hash-map iteration, so the grouping is a pure
  // function of the inputs.
  struct Keyed {
    int64_t cx, cy;
    uint32_t id;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) {
    keyed.push_back({static_cast<int64_t>(std::floor(points[i].pos.x / width)),
                     static_cast<int64_t>(std::floor(points[i].pos.y / width)),
                     i});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.cx != b.cx) return a.cx < b.cx;
                     return a.cy < b.cy;
                   });
  // Greedy chunking of the sorted order: a batch closes at max_batch
  // members, or as soon as the next point would stretch its bounding box
  // beyond max_spread in any axis — including z, since the group sweep's
  // propagation slack follows the full 3-D source spread and sources
  // straddling steep relief cost more than they amortize.
  std::vector<std::vector<uint32_t>> batches;
  std::vector<uint32_t> batch;
  Vec3 bb_min{0.0, 0.0, 0.0}, bb_max{0.0, 0.0, 0.0};
  for (const Keyed& k : keyed) {
    const Vec3& p = points[k.id].pos;
    if (!batch.empty()) {
      const Vec3 n0{std::min(bb_min.x, p.x), std::min(bb_min.y, p.y),
                    std::min(bb_min.z, p.z)};
      const Vec3 n1{std::max(bb_max.x, p.x), std::max(bb_max.y, p.y),
                    std::max(bb_max.z, p.z)};
      if (batch.size() >= limit || n1.x - n0.x > max_spread ||
          n1.y - n0.y > max_spread || n1.z - n0.z > max_spread) {
        batches.push_back(std::move(batch));
        batch.clear();
      } else {
        bb_min = n0;
        bb_max = n1;
        batch.push_back(k.id);
        continue;
      }
    }
    bb_min = bb_max = p;
    batch.push_back(k.id);
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

namespace {

/// The greedy selection structure of Implementation Detail 1: uncovered POIs
/// bucketed into cells of width O(r_i), each cell's ids kept in a sorted
/// vector, and a lazy max-heap over cell occupancy.
class GreedyPicker {
 public:
  GreedyPicker(const std::vector<SurfacePoint>& pois,
               const std::vector<uint8_t>& covered, double cell_width)
      : pois_(pois), cell_(std::max(cell_width, 1e-9)) {
    for (uint32_t i = 0; i < pois.size(); ++i) {
      if (covered[i]) continue;
      cells_[CellKey(i)].push_back(i);  // ascending ids: cells stay sorted
    }
    for (auto& [key, ids] : cells_) {
      heap_.push({ids.size(), key});
    }
  }

  /// Removes a covered POI from its cell.
  void Remove(uint32_t poi) {
    const uint64_t key = CellKey(poi);
    auto it = cells_.find(key);
    if (it == cells_.end()) return;
    std::vector<uint32_t>& ids = it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), poi);
    if (pos != ids.end() && *pos == poi) {
      ids.erase(pos);
      heap_.push({ids.size(), key});
    }
  }

  /// Picks a random POI from the densest non-empty cell (kInvalidId if all
  /// cells are empty).
  uint32_t Pick(Rng& rng) {
    while (!heap_.empty()) {
      const auto [count, key] = heap_.top();
      auto it = cells_.find(key);
      if (it == cells_.end() || it->second.size() != count || count == 0) {
        heap_.pop();  // stale entry
        continue;
      }
      return it->second[rng.Uniform(count)];
    }
    return kInvalidId;
  }

 private:
  uint64_t CellKey(uint32_t poi) const {
    const Vec3& p = pois_[poi].pos;
    const int64_t cx = static_cast<int64_t>(std::floor(p.x / cell_));
    const int64_t cy = static_cast<int64_t>(std::floor(p.y / cell_));
    return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
           static_cast<uint32_t>(cy);
  }

  const std::vector<SurfacePoint>& pois_;
  double cell_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
  std::priority_queue<std::pair<size_t, uint64_t>> heap_;
};

/// Everything Build needs from one candidate's 2·r_i SSAD, extracted while
/// the solver still holds the run. Independent of the covered set, so a
/// summary computed speculatively ahead of time commits exactly like one
/// computed on demand.
struct SsadSummary {
  std::vector<uint32_t> covers;                      // POI ids with d <= r_i
  std::vector<std::pair<uint32_t, double>> parents;  // prev-layer idx, d
};

}  // namespace

const char* SelectionStrategyName(SelectionStrategy s) {
  switch (s) {
    case SelectionStrategy::kRandom:
      return "random";
    case SelectionStrategy::kGreedy:
      return "greedy";
  }
  return "?";
}

StatusOr<PartitionTree> PartitionTree::Build(
    const TerrainMesh& mesh, const std::vector<SurfacePoint>& pois,
    GeodesicSolver& solver, SelectionStrategy strategy, Rng& rng,
    PartitionTreeStats* stats, const PartitionTreeOptions& options) {
  const size_t n = pois.size();
  if (n == 0) return Status::InvalidArgument("no POIs");
  WallTimer timer;
  size_t ssad_runs = 0;
  size_t speculative_ssads = 0;
  size_t wasted_ssads = 0;

  const uint32_t num_workers =
      options.solver_factory != nullptr && options.num_threads > 1
          ? options.num_threads
          : 1;
  // Worker solvers for speculative batches; created lazily on the first
  // parallel batch and reused across layers.
  std::vector<std::unique_ptr<GeodesicSolver>> workers;

  PartitionTree tree;
  tree.leaf_of_poi_.assign(n, kInvalidId);

  // --- Step 1: root node ---
  const uint32_t root_center = static_cast<uint32_t>(rng.Uniform(n));
  double r0 = 0.0;
  if (n > 1) {
    SsadOptions opts;
    opts.cover_targets = &pois;
    TSO_RETURN_IF_ERROR(solver.Run(pois[root_center], opts));
    ++ssad_runs;
    for (size_t i = 0; i < n; ++i) {
      r0 = std::max(r0, solver.PointDistance(pois[i]));
    }
    if (!(r0 > 0.0) || !std::isfinite(r0)) {
      return Status::InvalidArgument(
          "POIs appear to contain duplicates or be unreachable");
    }
  }
  tree.r0_ = r0;
  tree.nodes_.push_back(
      {root_center, r0, 0, kInvalidId, {}});
  tree.layer_nodes_.push_back({0});

  if (n == 1) {
    tree.height_ = 0;
    tree.leaf_of_poi_[root_center] = 0;
    if (stats != nullptr) {
      stats->height = 0;
      stats->num_nodes = 1;
      stats->ssad_runs = ssad_runs;
      stats->build_seconds = timer.ElapsedSeconds();
    }
    return tree;
  }

  // Static grid over all POIs for coverage queries. Geodesic distance
  // dominates x-y Euclidean distance, so the grid filter is conservative.
  const Aabb& bb = mesh.bounding_box();
  const double extent =
      std::max(bb.max.x - bb.min.x, std::max(bb.max.y - bb.min.y, 1e-9));
  XyGrid poi_grid(pois, extent / std::sqrt(static_cast<double>(n)) + 1e-9);

  // --- Step 2: non-root layers ---
  int layer = 0;
  while (tree.layer_nodes_[layer].size() < n) {
    const int i = layer + 1;
    if (i > 60) {
      return Status::Internal("partition tree exceeded 60 layers");
    }
    const double ri = r0 / static_cast<double>(1ull << i);
    std::vector<uint8_t> covered(n, 0);
    size_t uncovered = n;

    // Previous layer's centers, for PC-priority picks and parent search.
    std::vector<SurfacePoint> prev_center_points;
    std::vector<uint32_t> prev_nodes = tree.layer_nodes_[layer];
    rng.Shuffle(prev_nodes);
    prev_center_points.reserve(prev_nodes.size());
    for (uint32_t id : prev_nodes) {
      prev_center_points.push_back(pois[tree.nodes_[id].center]);
    }
    XyGrid prev_grid(prev_center_points,
                     std::max(2.0 * ri / 4.0, extent / 1024.0));

    size_t pc_cursor = 0;  // next previous-layer center to try

    std::unique_ptr<GreedyPicker> greedy;
    std::vector<uint32_t> random_order;
    size_t random_cursor = 0;
    if (strategy == SelectionStrategy::kGreedy) {
      greedy = std::make_unique<GreedyPicker>(pois, covered, ri);
    } else {
      random_order.resize(n);
      for (uint32_t k = 0; k < n; ++k) random_order[k] = k;
      rng.Shuffle(random_order);
    }

    // Step (ii): SSAD out to 2·r_i — r_i for covering, 2·r_i to reach the
    // parent (Covering property of layer i-1 guarantees one within
    // 2·r_i = r_{i-1}). The summary captures the coverage set and the
    // parent-candidate distances in grid-query order, so committing it later
    // reproduces the serial build exactly.
    auto summarize = [&](GeodesicSolver& s, uint32_t p,
                         SsadSummary* out) -> Status {
      SsadOptions opts;
      opts.radius_bound = 2.0 * ri * (1.0 + 1e-9);
      TSO_RETURN_IF_ERROR(s.Run(pois[p], opts));
      out->covers.clear();
      out->parents.clear();
      std::vector<uint32_t> candidates;
      poi_grid.Query(pois[p].pos.x, pois[p].pos.y, ri, &candidates);
      for (uint32_t cand : candidates) {
        if (s.PointDistance(pois[cand]) <= ri) out->covers.push_back(cand);
      }
      prev_grid.Query(pois[p].pos.x, pois[p].pos.y, 2.0 * ri * (1.0 + 1e-9),
                      &candidates);
      for (uint32_t k : candidates) {
        const double d = s.PointDistance(prev_center_points[k]);
        if (d < kInfDist) out->parents.emplace_back(k, d);
      }
      return Status::Ok();
    };

    // Step (i): point selection — previous-layer centers first, then the
    // strategy's pick. Identical to the serial algorithm for any worker
    // count (speculation below consumes no RNG).
    auto pick_next = [&]() -> uint32_t {
      uint32_t p = kInvalidId;
      while (pc_cursor < prev_nodes.size()) {
        const uint32_t c = tree.nodes_[prev_nodes[pc_cursor]].center;
        if (!covered[c]) {
          p = c;
          break;
        }
        ++pc_cursor;
      }
      if (p == kInvalidId) {
        if (strategy == SelectionStrategy::kGreedy) {
          p = greedy->Pick(rng);
        } else {
          while (random_cursor < random_order.size() &&
                 covered[random_order[random_cursor]]) {
            ++random_cursor;
          }
          if (random_cursor < random_order.size()) {
            p = random_order[random_cursor];
          }
        }
      }
      return p;
    };

    // Speculation cache: candidate POI -> precomputed SSAD summary. Entries
    // stay valid for the whole layer (summaries are state-independent);
    // entries whose candidate never becomes a center are counted as waste.
    std::unordered_map<uint32_t, SsadSummary> spec_cache;

    // Runs SSADs for `first` plus upcoming uncovered candidates in selection
    // order, pairwise more than r_i apart in 3-D Euclidean distance (a lower
    // bound on geodesic distance, so committing one batch member cannot
    // cover another — their summaries all get used unless an off-batch
    // candidate intervenes).
    auto refill_cache = [&](uint32_t first) -> Status {
      const size_t batch_limit = 2 * static_cast<size_t>(num_workers);
      std::vector<uint32_t> batch;
      auto consider = [&](uint32_t c) {
        if (covered[c] || spec_cache.count(c) != 0) return;
        for (uint32_t b : batch) {
          if (c == b || Distance(pois[c].pos, pois[b].pos) <= ri) return;
        }
        batch.push_back(c);
      };
      consider(first);
      for (size_t k = pc_cursor;
           k < prev_nodes.size() && batch.size() < batch_limit; ++k) {
        consider(tree.nodes_[prev_nodes[k]].center);
      }
      if (strategy == SelectionStrategy::kRandom) {
        for (size_t k = random_cursor;
             k < random_order.size() && batch.size() < batch_limit; ++k) {
          consider(random_order[k]);
        }
      }
      if (batch.size() <= 1) return Status::Ok();  // nothing to parallelize

      const uint32_t active =
          static_cast<uint32_t>(std::min<size_t>(num_workers, batch.size()));
      while (workers.size() < active) {
        std::unique_ptr<GeodesicSolver> s = options.solver_factory();
        if (s == nullptr) {
          return Status::Internal("solver factory returned null");
        }
        workers.push_back(std::move(s));
      }
      std::vector<SsadSummary> results(batch.size());
      std::vector<Status> worker_status(active);
      std::atomic<size_t> next{0};
      std::vector<std::thread> pool;
      pool.reserve(active);
      for (uint32_t t = 0; t < active; ++t) {
        pool.emplace_back([&, t]() {
          while (true) {
            const size_t k = next.fetch_add(1);
            if (k >= batch.size()) break;
            Status st = summarize(*workers[t], batch[k], &results[k]);
            if (!st.ok()) {
              worker_status[t] = st;
              break;
            }
          }
        });
      }
      for (std::thread& w : pool) w.join();
      for (const Status& st : worker_status) TSO_RETURN_IF_ERROR(st);
      ssad_runs += batch.size();
      speculative_ssads += batch.size();
      for (size_t k = 0; k < batch.size(); ++k) {
        spec_cache.emplace(batch[k], std::move(results[k]));
      }
      return Status::Ok();
    };

    // Step (iii): coverage marking + node creation + parent hookup.
    auto commit = [&](uint32_t p, const SsadSummary& sum) -> Status {
      for (uint32_t cand : sum.covers) {
        if (covered[cand]) continue;
        covered[cand] = 1;
        --uncovered;
        if (greedy != nullptr) greedy->Remove(cand);
      }
      TSO_CHECK(covered[p]);  // a node always covers its own center
      double best_dist = kInfDist;
      uint32_t best_parent = kInvalidId;
      for (const auto& [k, d] : sum.parents) {
        if (d < best_dist) {
          best_dist = d;
          best_parent = prev_nodes[k];
        }
      }
      if (best_parent == kInvalidId) {
        return Status::Internal(
            "no parent found within 2*r_i (covering property violated)");
      }
      const uint32_t node_id = static_cast<uint32_t>(tree.nodes_.size());
      tree.nodes_.push_back({p, ri, i, best_parent, {}});
      tree.nodes_[best_parent].children.push_back(node_id);
      tree.layer_nodes_.back().push_back(node_id);
      return Status::Ok();
    };

    tree.layer_nodes_.emplace_back();
    while (uncovered > 0) {
      const uint32_t p = pick_next();
      TSO_CHECK(p != kInvalidId);
      auto it = spec_cache.find(p);
      if (it == spec_cache.end() && num_workers > 1) {
        TSO_RETURN_IF_ERROR(refill_cache(p));
        it = spec_cache.find(p);
      }
      if (it != spec_cache.end()) {
        const Status st = commit(p, it->second);
        spec_cache.erase(it);
        TSO_RETURN_IF_ERROR(st);
      } else {
        SsadSummary sum;
        TSO_RETURN_IF_ERROR(summarize(solver, p, &sum));
        ++ssad_runs;
        TSO_RETURN_IF_ERROR(commit(p, sum));
      }
    }
    wasted_ssads += spec_cache.size();
    layer = i;
  }

  tree.height_ = layer;
  for (uint32_t id : tree.layer_nodes_[layer]) {
    tree.leaf_of_poi_[tree.nodes_[id].center] = id;
  }
  for (size_t p = 0; p < n; ++p) {
    TSO_CHECK(tree.leaf_of_poi_[p] != kInvalidId);
  }

  if (stats != nullptr) {
    stats->height = tree.height_;
    stats->num_nodes = tree.nodes_.size();
    stats->ssad_runs = ssad_runs;
    stats->build_seconds = timer.ElapsedSeconds();
    stats->speculative_ssads = speculative_ssads;
    stats->wasted_ssads = wasted_ssads;
  }
  return tree;
}

Status PartitionTree::CheckProperties(const std::vector<SurfacePoint>& pois,
                                      GeodesicSolver& solver) const {
  const int h = height_;
  for (int i = 0; i <= h; ++i) {
    const double ri = LayerRadius(i);
    const auto& layer = layer_nodes_[i];
    // Separation: pairwise center distance >= r_i.
    for (size_t a = 0; a < layer.size(); ++a) {
      SsadOptions opts;
      TSO_RETURN_IF_ERROR(solver.Run(pois[nodes_[layer[a]].center], opts));
      for (size_t b = 0; b < layer.size(); ++b) {
        if (a == b) continue;
        const double d = solver.PointDistance(pois[nodes_[layer[b]].center]);
        if (d < ri * (1.0 - 1e-6)) {
          return Status::Internal("separation property violated");
        }
      }
      // Covering handled below with the same SSAD runs (a covers subset).
    }
    // Covering: every POI within r_i of some layer-i center.
    for (size_t p = 0; p < pois.size(); ++p) {
      bool covered = false;
      for (uint32_t id : layer) {
        SsadOptions opts;
        TSO_RETURN_IF_ERROR(solver.Run(pois[nodes_[id].center], opts));
        if (solver.PointDistance(pois[p]) <= ri * (1.0 + 1e-6)) {
          covered = true;
          break;
        }
      }
      if (!covered) return Status::Internal("covering property violated");
    }
  }
  // Distance property: descendants within 2*r of every ancestor.
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    SsadOptions opts;
    TSO_RETURN_IF_ERROR(solver.Run(pois[nodes_[id].center], opts));
    std::vector<uint32_t> stack = nodes_[id].children;
    while (!stack.empty()) {
      const uint32_t d = stack.back();
      stack.pop_back();
      const double dist = solver.PointDistance(pois[nodes_[d].center]);
      if (dist > 2.0 * nodes_[id].radius * (1.0 + 1e-6)) {
        return Status::Internal("distance property violated");
      }
      for (uint32_t c : nodes_[d].children) stack.push_back(c);
    }
  }
  return Status::Ok();
}

}  // namespace tso
