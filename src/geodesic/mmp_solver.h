#ifndef TSO_GEODESIC_MMP_SOLVER_H_
#define TSO_GEODESIC_MMP_SOLVER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geodesic/solver.h"

namespace tso {

/// Exact geodesic SSAD via the MMP continuous-Dijkstra algorithm
/// (Mitchell–Mount–Papadimitriou [26], in the practical formulation of
/// Surazhsky et al.): the wavefront is maintained as *windows* on mesh edges
/// — intervals with a planar-unfolded pseudo-source — propagated in
/// min-distance order across faces. Overlapping windows are trimmed against
/// each other by solving for the exact hyperbola crossing of their distance
/// functions, so the surviving windows form the lower envelope of the
/// distance field restricted to each edge.
///
/// Pseudo-sources are spawned from *every* vertex whose label improves (not
/// only saddle vertices). Windows that such spawning adds at non-saddle
/// vertices are dominated and quickly trimmed, so distances stay exact while
/// the implementation remains robust on arbitrary manifold meshes (see
/// docs/reproduction.md, substitution 4).
///
/// This is the paper's "SSAD exact shortest path algorithm" plug-in (§3.2
/// Implementation Detail 2), supporting all three stopping criteria of
/// SsadOptions.
///
/// A radius-bounded run stops *before* popping the first live event beyond
/// the bound, so the wavefront is resumable: Extend() continues the very
/// same event loop, and a run extended bound by bound ends in the state a
/// fresh run at the last bound would have reached.
class MmpSolver : public GeodesicSolver {
 public:
  explicit MmpSolver(const TerrainMesh& mesh);

  Status Run(const SurfacePoint& source, const SsadOptions& opts) override;
  /// Resumes the last run when it was from the same `source`, had no
  /// cover/stop targets and succeeded; otherwise runs afresh.
  Status Extend(const SurfacePoint& source, double radius_bound) override;
  double VertexDistance(uint32_t v) const override;
  double PointDistance(const SurfacePoint& p) const override;
  double frontier() const override { return frontier_; }
  const char* name() const override { return "mmp-exact"; }

  /// Statistics of the last run (for benchmarks / tests).
  struct RunStats {
    size_t windows_created = 0;
    size_t windows_propagated = 0;
    size_t vertices_processed = 0;
  };
  const RunStats& stats() const { return stats_; }

  /// Hard cap on windows per run; exceeding it aborts the run with an error.
  void set_max_windows(size_t cap) { max_windows_ = cap; }

 private:
  struct Window {
    double b0, b1;   // interval on the edge, canonical param in [0, length]
    double d0, d1;   // pseudo-source distance to the points at b0 / b1
    double sigma;    // real source -> pseudo-source distance
    double sx, sy;   // unfolded pseudo-source; sy >= 0 by convention
    uint32_t edge;
    uint32_t from_face;  // face the wave crossed; propagates into the other
    bool alive;
    bool propagated;
  };

  struct Event {
    double key;
    uint32_t id;    // window id or vertex id
    uint8_t type;   // 0 = window, 1 = vertex
    bool operator>(const Event& o) const { return key > o.key; }
  };

  static double DistAt(const Window& w, double x);
  static double MinKey(const Window& w);
  static void ComputeSource(Window* w);

  void Reset();
  Status InitSource(const SurfacePoint& source);
  /// The event loop shared by Run and Extend: processes events in key order
  /// until the first live one beyond `radius_bound` (left on the heap), the
  /// heap runs dry, or the stop/cover targets settle.
  Status Sweep(double radius_bound);
  void InsertWindow(Window w);
  void Propagate(const Window& w);
  void SpawnPseudoSource(uint32_t v);
  void UpdateVertex(uint32_t v, double d);
  void MarkFaceTargetsDirty(uint32_t face);
  double EvaluatePoint(const SurfacePoint& p) const;

  const TerrainMesh& mesh_;
  std::vector<double> vdist_;
  std::vector<uint8_t> vertex_processed_;
  std::vector<Window> pool_;
  std::vector<std::vector<uint32_t>> edge_windows_;
  std::vector<uint32_t> touched_edges_;
  // std::priority_queue replacement via push/pop_heap.
  std::vector<Event> heap_;
  double frontier_ = 0.0;
  double eps_len_ = 0.0;
  SurfacePoint source_;        // after InitSource's on-edge nudge
  SurfacePoint run_source_;    // as passed to Run, for Extend's check
  bool resumable_ = false;     // last run succeeded without targets
  RunStats stats_;
  size_t max_windows_ = 50'000'000;

  // Target bookkeeping for cover/stop termination.
  std::vector<SurfacePoint> targets_;
  std::vector<double> target_est_;
  std::vector<uint8_t> target_settled_;
  std::vector<uint32_t> dirty_stack_;
  std::vector<uint8_t> target_dirty_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> face_targets_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> vertex_targets_;
  std::vector<Event> target_heap_;  // (est, target idx) min-heap, lazy
  size_t targets_settled_count_ = 0;
  int stop_target_idx_ = -1;

  // InsertWindow's scratch, reused across calls so the hot path does not
  // allocate.
  using Interval = std::pair<double, double>;
  std::vector<Interval> w_frags_, frags_next_, o_keep_, o_merged_;
  std::vector<uint32_t> rebuilt_;
  std::vector<Window> o_fragments_;
};

}  // namespace tso

#endif  // TSO_GEODESIC_MMP_SOLVER_H_
