#ifndef TSO_MESH_TERRAIN_MESH_H_
#define TSO_MESH_TERRAIN_MESH_H_

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "geom/vec3.h"

namespace tso {

/// Sentinel for "no face / no edge / no vertex".
inline constexpr uint32_t kInvalidId = std::numeric_limits<uint32_t>::max();

/// Axis-aligned bounding box.
struct Aabb {
  Vec3 min{std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()};
  Vec3 max{-std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};

  void Extend(const Vec3& p) {
    min.x = std::min(min.x, p.x);
    min.y = std::min(min.y, p.y);
    min.z = std::min(min.z, p.z);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
    max.z = std::max(max.z, p.z);
  }
};

/// A triangulated irregular network (TIN) terrain surface: the paper's model
/// of a terrain T = (V, E, F) (§2).
///
/// Construction validates manifoldness (each edge shared by at most two
/// faces) and rejects degenerate triangles; adjacency (edge<->face,
/// face<->face, vertex->incident edges/faces) is precomputed for the geodesic
/// algorithms.
class TerrainMesh {
 public:
  struct Edge {
    uint32_t v0;    // v0 < v1 canonical orientation
    uint32_t v1;
    uint32_t f0;    // adjacent faces; f1 == kInvalidId on the boundary
    uint32_t f1;
    double length;
  };

  /// Builds a mesh from a triangle soup. Fails on out-of-range indices,
  /// repeated vertices, degenerate or duplicated faces, non-manifold edges,
  /// or an empty mesh; topology errors name the edge's vertex ids and the
  /// face indices involved.
  static StatusOr<TerrainMesh> FromSoup(
      std::vector<Vec3> vertices, std::vector<std::array<uint32_t, 3>> faces);

  // --- Element counts (N = |V| in the paper) ---
  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }
  size_t num_faces() const { return faces_.size(); }

  // --- Element accessors ---
  const Vec3& vertex(uint32_t v) const { return vertices_[v]; }
  const std::array<uint32_t, 3>& face(uint32_t f) const { return faces_[f]; }
  const Edge& edge(uint32_t e) const { return edges_[e]; }
  const std::vector<Vec3>& vertices() const { return vertices_; }
  const std::vector<std::array<uint32_t, 3>>& faces() const { return faces_; }

  /// Edge ids of face f; entry i is the edge between face vertices i and
  /// (i+1)%3.
  const std::array<uint32_t, 3>& face_edges(uint32_t f) const {
    return face_edges_[f];
  }

  /// Face adjacent to f across its i-th edge (kInvalidId at the boundary).
  uint32_t face_neighbor(uint32_t f, int i) const {
    const Edge& e = edges_[face_edges_[f][i]];
    return e.f0 == f ? e.f1 : e.f0;
  }

  /// The face adjacent to edge e other than f (kInvalidId if none).
  uint32_t other_face(uint32_t e, uint32_t f) const {
    const Edge& ed = edges_[e];
    return ed.f0 == f ? ed.f1 : ed.f0;
  }

  /// The vertex of face f not incident to edge e. f must contain e.
  uint32_t opposite_vertex(uint32_t f, uint32_t e) const;

  /// Edge id between vertices u and v, or kInvalidId.
  uint32_t edge_between(uint32_t u, uint32_t v) const;

  /// Edges incident to vertex v.
  std::span<const uint32_t> vertex_edges(uint32_t v) const {
    return {edge_adj_.data() + vertex_edge_offset_[v],
            vertex_edge_offset_[v + 1] - vertex_edge_offset_[v]};
  }

  /// Faces incident to vertex v.
  std::span<const uint32_t> vertex_faces(uint32_t v) const {
    return {face_adj_.data() + vertex_face_offset_[v],
            vertex_face_offset_[v + 1] - vertex_face_offset_[v]};
  }

  // --- Derived geometry ---
  double edge_length(uint32_t e) const { return edges_[e].length; }
  double FaceArea(uint32_t f) const;
  double TotalArea() const;
  /// Sum of incident-face angles at v (> 2π at saddle vertices).
  double VertexAngleSum(uint32_t v) const;
  /// Minimum inner angle over all faces (θ in Table 1), radians.
  double MinInnerAngle() const;
  double MinEdgeLength() const;
  double MaxEdgeLength() const;
  const Aabb& bounding_box() const { return bbox_; }

  /// True if v lies on a boundary edge.
  bool IsBoundaryVertex(uint32_t v) const;

  /// Centroid of face f.
  Vec3 FaceCentroid(uint32_t f) const;

  /// Structural self-check (adjacency tables consistent); O(N). For tests.
  Status Validate() const;

  /// Human-readable one-line summary.
  std::string DebugString() const;

 private:
  TerrainMesh() = default;

  Status BuildAdjacency();

  std::vector<Vec3> vertices_;
  std::vector<std::array<uint32_t, 3>> faces_;
  std::vector<Edge> edges_;
  std::vector<std::array<uint32_t, 3>> face_edges_;
  // CSR adjacency: vertex -> incident edges / faces.
  std::vector<uint32_t> vertex_edge_offset_;
  std::vector<uint32_t> edge_adj_;
  std::vector<uint32_t> vertex_face_offset_;
  std::vector<uint32_t> face_adj_;
  Aabb bbox_;
};

/// A point on the terrain surface: a face id plus a 3D position assumed to
/// lie on (or numerically near) that face's plane. Vertices are represented
/// with `vertex` set to the vertex id (face = any incident face).
struct SurfacePoint {
  uint32_t face = kInvalidId;
  uint32_t vertex = kInvalidId;  // kInvalidId unless exactly at a mesh vertex
  Vec3 pos;

  static SurfacePoint AtVertex(const TerrainMesh& mesh, uint32_t v) {
    SurfacePoint p;
    p.vertex = v;
    p.face = mesh.vertex_faces(v).empty() ? kInvalidId
                                          : mesh.vertex_faces(v)[0];
    p.pos = mesh.vertex(v);
    return p;
  }

  static SurfacePoint OnFace(uint32_t face, const Vec3& pos) {
    SurfacePoint p;
    p.face = face;
    p.pos = pos;
    return p;
  }

  bool is_vertex() const { return vertex != kInvalidId; }
};

}  // namespace tso

#endif  // TSO_MESH_TERRAIN_MESH_H_
