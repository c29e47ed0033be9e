#include "geodesic/mmp_solver.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "geom/unfold.h"
#include "geom/vec2.h"

namespace tso {
namespace {

constexpr double kTieEps = 1e-11;

bool SamePoint(const SurfacePoint& a, const SurfacePoint& b) {
  return a.vertex == b.vertex && a.face == b.face && a.pos.x == b.pos.x &&
         a.pos.y == b.pos.y && a.pos.z == b.pos.z;
}

}  // namespace

MmpSolver::MmpSolver(const TerrainMesh& mesh)
    : mesh_(mesh),
      vdist_(mesh.num_vertices(), kInfDist),
      vertex_processed_(mesh.num_vertices(), 0),
      edge_windows_(mesh.num_edges()) {
  eps_len_ = 1e-9 * mesh.MaxEdgeLength();
}

double MmpSolver::DistAt(const Window& w, double x) {
  return w.sigma + std::hypot(x - w.sx, w.sy);
}

double MmpSolver::MinKey(const Window& w) {
  if (w.sx < w.b0) return w.sigma + std::hypot(w.b0 - w.sx, w.sy);
  if (w.sx > w.b1) return w.sigma + std::hypot(w.b1 - w.sx, w.sy);
  return w.sigma + w.sy;
}

void MmpSolver::ComputeSource(Window* w) {
  const double span = w->b1 - w->b0;
  w->sx = 0.5 * ((w->d0 * w->d0 - w->d1 * w->d1) / span + w->b0 + w->b1);
  const double sy_sq = w->d0 * w->d0 - (w->sx - w->b0) * (w->sx - w->b0);
  w->sy = sy_sq > 0.0 ? std::sqrt(sy_sq) : 0.0;
}

void MmpSolver::Reset() {
  for (uint32_t e : touched_edges_) edge_windows_[e].clear();
  touched_edges_.clear();
  pool_.clear();
  heap_.clear();
  std::fill(vdist_.begin(), vdist_.end(), kInfDist);
  std::fill(vertex_processed_.begin(), vertex_processed_.end(), 0);
  frontier_ = 0.0;
  stats_ = RunStats{};
  targets_.clear();
  target_est_.clear();
  target_settled_.clear();
  target_dirty_.clear();
  dirty_stack_.clear();
  face_targets_.clear();
  vertex_targets_.clear();
  target_heap_.clear();
  targets_settled_count_ = 0;
  stop_target_idx_ = -1;
  resumable_ = false;
}

void MmpSolver::UpdateVertex(uint32_t v, double d) {
  if (d + kTieEps * (1.0 + d) < vdist_[v]) {
    vdist_[v] = d;
    heap_.push_back({d, v, 1});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    if (targets_.empty()) return;
    auto it = vertex_targets_.find(v);
    if (it != vertex_targets_.end()) {
      for (uint32_t t : it->second) {
        if (!target_dirty_[t]) {
          target_dirty_[t] = 1;
          dirty_stack_.push_back(t);
        }
      }
    }
    // Vertex labels feed face-interior estimates too.
    for (uint32_t f : mesh_.vertex_faces(v)) MarkFaceTargetsDirty(f);
  }
}

void MmpSolver::MarkFaceTargetsDirty(uint32_t face) {
  if (targets_.empty()) return;
  auto it = face_targets_.find(face);
  if (it == face_targets_.end()) return;
  for (uint32_t t : it->second) {
    if (!target_dirty_[t]) {
      target_dirty_[t] = 1;
      dirty_stack_.push_back(t);
    }
  }
}

void MmpSolver::InsertWindow(Window w) {
  const TerrainMesh::Edge& ed = mesh_.edge(w.edge);
  const double len = ed.length;
  w.b0 = std::max(w.b0, 0.0);
  w.b1 = std::min(w.b1, len);
  if (w.b1 - w.b0 <= eps_len_) return;
  ComputeSource(&w);
  w.alive = true;

  // Endpoint relaxations: window point + straight run along the edge is a
  // valid surface path, so these hold whether or not the window survives.
  UpdateVertex(ed.v0, DistAt(w, w.b0) + w.b0);
  UpdateVertex(ed.v1, DistAt(w, w.b1) + (len - w.b1));

  std::vector<uint32_t>& list = edge_windows_[w.edge];
  if (list.empty()) touched_edges_.push_back(w.edge);

  // Fragments of the new window that remain after losing to existing
  // windows. Existing windows are pairwise disjoint, so each existing window
  // carves independently.
  std::vector<Interval>& w_frags = w_frags_;
  std::vector<uint32_t>& rebuilt = rebuilt_;
  std::vector<Window>& o_fragments = o_fragments_;
  w_frags.assign(1, {w.b0, w.b1});
  rebuilt.clear();
  o_fragments.clear();

  for (uint32_t oid : list) {
    Window& o = pool_[oid];
    const double lo = std::max(o.b0, w.b0);
    const double hi = std::min(o.b1, w.b1);
    if (hi - lo <= eps_len_) {
      rebuilt.push_back(oid);
      continue;
    }
    // Breakpoints of the winner function on [lo, hi].
    double xs[2];
    const int ncross = WavefrontCrossings({o.sx, o.sy}, o.sigma,
                                          {w.sx, w.sy}, w.sigma, xs);
    double pts[4];
    int npts = 0;
    pts[npts++] = lo;
    for (int i = 0; i < ncross; ++i) {
      if (xs[i] > lo + eps_len_ && xs[i] < hi - eps_len_) pts[npts++] = xs[i];
    }
    pts[npts++] = hi;

    // Sub-intervals of [o.b0, o.b1] that o keeps (everything outside the
    // overlap plus overlap pieces where o wins or ties).
    std::vector<Interval>& o_keep = o_keep_;
    o_keep.clear();
    if (o.b0 < lo - eps_len_) o_keep.emplace_back(o.b0, lo);
    bool o_lost_any = false;
    for (int i = 0; i + 1 < npts; ++i) {
      const double mid = 0.5 * (pts[i] + pts[i + 1]);
      const double dw = DistAt(w, mid);
      const double dov = DistAt(o, mid);
      if (dw + kTieEps * (1.0 + dw) < dov) {
        // w wins strictly: o loses this piece.
        o_lost_any = true;
        // Carve the piece out of nothing for o (skip).
      } else {
        // o wins or ties: o keeps, w loses this piece.
        o_keep.emplace_back(pts[i], pts[i + 1]);
        // Subtract [pts[i], pts[i+1]] from w_frags.
        std::vector<Interval>& next = frags_next_;
        next.clear();
        for (const auto& [a, b] : w_frags) {
          const double cl = std::max(a, pts[i]);
          const double ch = std::min(b, pts[i + 1]);
          if (ch - cl <= eps_len_) {
            next.emplace_back(a, b);
            continue;
          }
          if (cl - a > eps_len_) next.emplace_back(a, cl);
          if (b - ch > eps_len_) next.emplace_back(ch, b);
        }
        w_frags.swap(next);
      }
    }
    if (o.b1 > hi + eps_len_) o_keep.emplace_back(hi, o.b1);

    if (!o_lost_any) {
      rebuilt.push_back(oid);
      continue;
    }
    // o shrinks: merge adjacent keep-intervals, materialize fragments.
    o.alive = false;
    std::vector<Interval>& merged = o_merged_;
    merged.clear();
    for (const auto& iv : o_keep) {
      if (!merged.empty() && iv.first - merged.back().second <= eps_len_) {
        merged.back().second = iv.second;
      } else {
        merged.push_back(iv);
      }
    }
    for (const auto& [a, b] : merged) {
      if (b - a <= eps_len_) continue;
      Window frag = o;
      frag.alive = true;
      frag.b0 = a;
      frag.b1 = b;
      frag.d0 = std::hypot(a - o.sx, o.sy);
      frag.d1 = std::hypot(b - o.sx, o.sy);
      // Source position is inherited (same pseudo-source).
      frag.sx = o.sx;
      frag.sy = o.sy;
      o_fragments.push_back(frag);
    }
  }

  // Materialize o fragments.
  for (Window& frag : o_fragments) {
    const uint32_t id = static_cast<uint32_t>(pool_.size());
    pool_.push_back(frag);
    rebuilt.push_back(id);
    if (!frag.propagated) {
      heap_.push_back({MinKey(frag), id, 0});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    }
  }
  // Materialize surviving fragments of w.
  bool any_new = false;
  for (const auto& [a, b] : w_frags) {
    if (b - a <= eps_len_) continue;
    Window frag = w;
    frag.b0 = a;
    frag.b1 = b;
    frag.d0 = std::hypot(a - w.sx, w.sy);
    frag.d1 = std::hypot(b - w.sx, w.sy);
    frag.propagated = false;
    const uint32_t id = static_cast<uint32_t>(pool_.size());
    pool_.push_back(frag);
    rebuilt.push_back(id);
    heap_.push_back({MinKey(frag), id, 0});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    ++stats_.windows_created;
    any_new = true;
  }

  std::sort(rebuilt.begin(), rebuilt.end(), [&](uint32_t a, uint32_t b) {
    return pool_[a].b0 < pool_[b].b0;
  });
  // Swap rather than move: the old list's buffer becomes the next call's
  // scratch.
  list.swap(rebuilt);

  if (any_new) {
    // New coverage on this edge can improve estimates in both adjacent faces.
    MarkFaceTargetsDirty(ed.f0);
    if (ed.f1 != kInvalidId) MarkFaceTargetsDirty(ed.f1);
  }
}

void MmpSolver::Propagate(const Window& w) {
  const TerrainMesh::Edge& ed = mesh_.edge(w.edge);
  const uint32_t target_face = mesh_.other_face(w.edge, w.from_face);
  if (target_face == kInvalidId) return;
  if (w.sy <= eps_len_) return;  // collinear source: no 2D spread across

  const double len = ed.length;
  const uint32_t apex = mesh_.opposite_vertex(target_face, w.edge);
  const Vec3& pv0 = mesh_.vertex(ed.v0);
  const Vec3& pv1 = mesh_.vertex(ed.v1);
  const Vec3& pap = mesh_.vertex(apex);
  const Vec2 a2d = ApexPosition(len, Distance(pap, pv0), Distance(pap, pv1));
  if (a2d.y <= eps_len_) return;  // degenerate unfolding

  const double sx = w.sx;
  const double sy = w.sy;  // source at (sx, -sy)

  struct Side {
    Vec2 p;          // base-line endpoint of the target edge
    uint32_t pv;     // mesh vertex at p
  };
  const Side sides[2] = {{{0.0, 0.0}, ed.v0}, {{len, 0.0}, ed.v1}};

  for (const Side& side : sides) {
    const uint32_t te = mesh_.edge_between(side.pv, apex);
    TSO_DCHECK(te != kInvalidId);
    const TerrainMesh::Edge& ted = mesh_.edge(te);
    const Vec2 P = side.p;
    const Vec2 Q = a2d;
    const double dx = Q.x - P.x;

    // x-coordinate where the segment source->X (X on PQ) crosses the base
    // line y=0: x(u) = sx + sy*(P.x + u*dx - sx) / (u*Q.y + sy).
    auto x_cross = [&](double u) {
      return sx + sy * (P.x + u * dx - sx) / (u * Q.y + sy);
    };
    const double x_at_p = x_cross(0.0);
    const double x_at_q = x_cross(1.0);
    const double reach_lo = std::min(x_at_p, x_at_q);
    const double reach_hi = std::max(x_at_p, x_at_q);
    const double blo = std::max(w.b0, reach_lo);
    const double bhi = std::min(w.b1, reach_hi);
    if (bhi - blo <= eps_len_) continue;

    auto u_for = [&](double b) {
      // Invert x_cross: u = sy*(b - P.x) / (sy*dx - (b - sx)*Q.y).
      const double denom = sy * dx - (b - sx) * Q.y;
      if (denom == 0.0) return kInfDist;
      return sy * (b - P.x) / denom;
    };
    double u0 = u_for(blo);
    double u1 = u_for(bhi);
    if (!std::isfinite(u0) || !std::isfinite(u1)) continue;
    if (u0 > u1) std::swap(u0, u1);
    u0 = std::clamp(u0, 0.0, 1.0);
    u1 = std::clamp(u1, 0.0, 1.0);
    if (u1 - u0 <= 1e-12) continue;

    const Vec2 x0_pt = P + (Q - P) * u0;
    const Vec2 x1_pt = P + (Q - P) * u1;
    const Vec2 s_pt{sx, -sy};
    const double dn0 = Distance(s_pt, x0_pt);
    const double dn1 = Distance(s_pt, x1_pt);

    Window nw;
    nw.sigma = w.sigma;
    nw.edge = te;
    nw.from_face = target_face;
    nw.propagated = false;
    nw.alive = true;
    const double tlen = ted.length;
    if (ted.v0 == side.pv) {
      nw.b0 = u0 * tlen;
      nw.b1 = u1 * tlen;
      nw.d0 = dn0;
      nw.d1 = dn1;
    } else {
      // Canonical param runs from the apex end.
      TSO_DCHECK(ted.v1 == side.pv);
      nw.b0 = (1.0 - u1) * tlen;
      nw.b1 = (1.0 - u0) * tlen;
      nw.d0 = dn1;
      nw.d1 = dn0;
    }
    InsertWindow(nw);
  }
}

void MmpSolver::SpawnPseudoSource(uint32_t v) {
  const double base = vdist_[v];
  const Vec3& pv = mesh_.vertex(v);
  for (uint32_t f : mesh_.vertex_faces(v)) {
    // Edge of f opposite to v.
    uint32_t opp = kInvalidId;
    for (int i = 0; i < 3; ++i) {
      const uint32_t e = mesh_.face_edges(f)[i];
      const TerrainMesh::Edge& ed = mesh_.edge(e);
      if (ed.v0 != v && ed.v1 != v) {
        opp = e;
        break;
      }
    }
    if (opp == kInvalidId) continue;
    const TerrainMesh::Edge& ed = mesh_.edge(opp);
    Window w;
    w.b0 = 0.0;
    w.b1 = ed.length;
    w.d0 = Distance(pv, mesh_.vertex(ed.v0));
    w.d1 = Distance(pv, mesh_.vertex(ed.v1));
    w.sigma = base;
    w.edge = opp;
    w.from_face = f;
    w.propagated = false;
    w.alive = true;
    InsertWindow(w);
  }
}

Status MmpSolver::InitSource(const SurfacePoint& source) {
  source_ = source;
  if (source.is_vertex()) {
    if (source.vertex >= mesh_.num_vertices()) {
      return Status::InvalidArgument("source vertex out of range");
    }
    UpdateVertex(source.vertex, 0.0);
    return Status::Ok();
  }
  if (source.face == kInvalidId || source.face >= mesh_.num_faces()) {
    return Status::InvalidArgument("source has no valid face");
  }
  const uint32_t f = source.face;
  // A source exactly on a face edge yields degenerate (collinear) initial
  // windows that cannot spread into the neighboring face; nudge such sources
  // toward the centroid by a negligible amount.
  {
    const Vec3 c = mesh_.FaceCentroid(f);
    double min_edge_dist = kInfDist;
    for (int i = 0; i < 3; ++i) {
      const TerrainMesh::Edge& ed = mesh_.edge(mesh_.face_edges(f)[i]);
      const Vec3& a = mesh_.vertex(ed.v0);
      const Vec3 ab = mesh_.vertex(ed.v1) - a;
      const double t =
          std::clamp((source_.pos - a).Dot(ab) / ab.NormSq(), 0.0, 1.0);
      min_edge_dist = std::min(min_edge_dist,
                               Distance(source_.pos, a + ab * t));
    }
    if (min_edge_dist < 1e-7 * mesh_.edge(mesh_.face_edges(f)[0]).length) {
      source_.pos = source_.pos + (c - source_.pos) * 1e-5;
    }
  }
  for (int i = 0; i < 3; ++i) {
    const uint32_t e = mesh_.face_edges(f)[i];
    const TerrainMesh::Edge& ed = mesh_.edge(e);
    Window w;
    w.b0 = 0.0;
    w.b1 = ed.length;
    w.d0 = Distance(source_.pos, mesh_.vertex(ed.v0));
    w.d1 = Distance(source_.pos, mesh_.vertex(ed.v1));
    w.sigma = 0.0;
    w.edge = e;
    w.from_face = f;
    w.propagated = false;
    w.alive = true;
    InsertWindow(w);
  }
  return Status::Ok();
}

double MmpSolver::VertexDistance(uint32_t v) const {
  return v < vdist_.size() ? vdist_[v] : kInfDist;
}

double MmpSolver::EvaluatePoint(const SurfacePoint& p) const {
  if (p.is_vertex()) return VertexDistance(p.vertex);
  if (p.face == kInvalidId || p.face >= mesh_.num_faces()) return kInfDist;
  double best = kInfDist;
  // Direct in-face segment from the source.
  if (!source_.is_vertex() && source_.face == p.face) {
    best = Distance(source_.pos, p.pos);
  }
  // Via face vertices.
  const auto& tri = mesh_.face(p.face);
  for (int i = 0; i < 3; ++i) {
    const uint32_t v = tri[i];
    if (vdist_[v] < kInfDist) {
      best = std::min(best, vdist_[v] + Distance(mesh_.vertex(v), p.pos));
    }
  }
  // Via windows entering this face.
  for (int i = 0; i < 3; ++i) {
    const uint32_t e = mesh_.face_edges(p.face)[i];
    const std::vector<uint32_t>& list = edge_windows_[e];
    if (list.empty()) continue;
    const TerrainMesh::Edge& ed = mesh_.edge(e);
    // Unfold p into the edge frame (y > 0 side).
    const double dpv0 = Distance(p.pos, mesh_.vertex(ed.v0));
    const double dpv1 = Distance(p.pos, mesh_.vertex(ed.v1));
    const Vec2 p2d = ApexPosition(ed.length, dpv0, dpv1);
    for (uint32_t wid : list) {
      const Window& w = pool_[wid];
      if (!w.alive) continue;
      if (mesh_.other_face(e, w.from_face) != p.face) continue;
      // Straight route if visible through the interval.
      if (w.sy > 0.0 || p2d.y > 0.0) {
        const double denom = p2d.y + w.sy;
        if (denom > 0.0) {
          const double x_cross = w.sx + (p2d.x - w.sx) * (w.sy / denom);
          if (x_cross >= w.b0 - eps_len_ && x_cross <= w.b1 + eps_len_) {
            best = std::min(
                best, w.sigma + std::hypot(p2d.x - w.sx, p2d.y + w.sy));
          }
        }
      }
      // Corner routes (always valid upper bounds; also plug trim gaps).
      best = std::min(best,
                      DistAt(w, w.b0) + std::hypot(p2d.x - w.b0, p2d.y));
      best = std::min(best,
                      DistAt(w, w.b1) + std::hypot(p2d.x - w.b1, p2d.y));
    }
  }
  return best;
}

double MmpSolver::PointDistance(const SurfacePoint& p) const {
  return EvaluatePoint(p);
}

Status MmpSolver::Run(const SurfacePoint& source, const SsadOptions& opts) {
  Reset();

  // Register targets (cover set and/or stop target).
  if (opts.cover_targets != nullptr) {
    targets_ = *opts.cover_targets;
  }
  if (opts.stop_target != nullptr) {
    stop_target_idx_ = static_cast<int>(targets_.size());
    targets_.push_back(*opts.stop_target);
  }
  target_est_.assign(targets_.size(), kInfDist);
  target_settled_.assign(targets_.size(), 0);
  target_dirty_.assign(targets_.size(), 1);
  for (uint32_t t = 0; t < targets_.size(); ++t) {
    dirty_stack_.push_back(t);
    if (targets_[t].is_vertex()) {
      vertex_targets_[targets_[t].vertex].push_back(t);
    } else {
      face_targets_[targets_[t].face].push_back(t);
    }
  }

  TSO_RETURN_IF_ERROR(InitSource(source));
  run_source_ = source;
  const Status status = Sweep(opts.radius_bound);
  resumable_ = status.ok() && targets_.empty();
  return status;
}

Status MmpSolver::Extend(const SurfacePoint& source, double radius_bound) {
  if (!resumable_ || !SamePoint(source, run_source_)) {
    SsadOptions opts;
    opts.radius_bound = radius_bound;
    return Run(source, opts);
  }
  const Status status = Sweep(radius_bound);
  resumable_ = status.ok();
  return status;
}

Status MmpSolver::Sweep(double radius_bound) {
  auto drain_dirty = [&]() {
    while (!dirty_stack_.empty()) {
      const uint32_t t = dirty_stack_.back();
      dirty_stack_.pop_back();
      target_dirty_[t] = 0;
      const double est = EvaluatePoint(targets_[t]);
      if (est < target_est_[t]) {
        target_est_[t] = est;
        target_heap_.push_back({est, t, 2});
        std::push_heap(target_heap_.begin(), target_heap_.end(),
                       std::greater<Event>());
      }
    }
  };
  auto settle_targets = [&]() {
    while (!target_heap_.empty() &&
           target_heap_.front().key <=
               frontier_ + kTieEps * (1.0 + frontier_)) {
      const Event top = target_heap_.front();
      std::pop_heap(target_heap_.begin(), target_heap_.end(),
                    std::greater<Event>());
      target_heap_.pop_back();
      if (top.key > target_est_[top.id]) continue;  // stale
      if (!target_settled_[top.id]) {
        target_settled_[top.id] = 1;
        ++targets_settled_count_;
      }
    }
  };
  auto done = [&]() {
    if (targets_.empty()) return false;
    if (stop_target_idx_ >= 0 && target_settled_[stop_target_idx_]) {
      return true;
    }
    return targets_settled_count_ == targets_.size();
  };
  auto pop = [this]() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>());
    heap_.pop_back();
  };

  drain_dirty();
  while (!heap_.empty()) {
    const Event top = heap_.front();
    // Stale events are dropped (or re-keyed) whatever the bound, exactly as
    // a run with a larger bound would drop them.
    if (top.type == 0) {
      if (top.id >= pool_.size() || !pool_[top.id].alive ||
          pool_[top.id].propagated) {
        pop();
        continue;
      }
      const double key = MinKey(pool_[top.id]);
      if (key > top.key + kTieEps * (1.0 + top.key)) {
        pop();
        heap_.push_back({key, top.id, 0});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>());
        continue;
      }
    } else if (vertex_processed_[top.id] ||
               top.key > vdist_[top.id] + kTieEps * (1.0 + vdist_[top.id])) {
      pop();
      continue;
    }
    frontier_ = std::max(frontier_, top.key);
    // A live event beyond the bound stays on the heap for a later Extend.
    if (top.key > radius_bound) break;
    pop();

    if (top.type == 0) {
      Window& w = pool_[top.id];
      w.propagated = true;
      ++stats_.windows_propagated;
      // Copy: InsertWindow during propagation may reallocate the pool.
      const Window snapshot = w;
      Propagate(snapshot);
    } else {
      vertex_processed_[top.id] = 1;
      ++stats_.vertices_processed;
      SpawnPseudoSource(top.id);
    }

    if (pool_.size() > max_windows_) {
      return Status::Internal("MMP window budget exceeded");
    }
    if (!targets_.empty()) {
      drain_dirty();
      settle_targets();
      if (done()) return Status::Ok();
    }
  }
  if (heap_.empty()) frontier_ = kInfDist;  // wavefront exhausted: all settled
  if (!targets_.empty()) {
    drain_dirty();
    settle_targets();
  }
  return Status::Ok();
}

}  // namespace tso
