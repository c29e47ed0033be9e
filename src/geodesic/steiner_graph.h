#ifndef TSO_GEODESIC_STEINER_GRAPH_H_
#define TSO_GEODESIC_STEINER_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"
#include "mesh/terrain_mesh.h"

namespace tso {

/// The auxiliary graph G_ε of the Steiner-point methods ([2, 3, 12, 19];
/// §4.2.1): `points_per_edge` evenly spaced Steiner points are placed on the
/// interior of every mesh edge, and every pair of points on the boundary of
/// the same face is connected by a straight ("Steiner") edge weighted by its
/// Euclidean length. Shortest paths in G_ε approximate geodesics; the
/// approximation tightens as the density grows (the paper's ε ~ 1/density).
class SteinerGraph {
 public:
  struct GraphEdge {
    uint32_t to;
    double weight;
  };

  /// Builds G_ε. `points_per_edge` >= 0 (0 degenerates to the 1-skeleton
  /// plus per-face chords between original vertices).
  static StatusOr<SteinerGraph> Build(const TerrainMesh& mesh,
                                      uint32_t points_per_edge);

  /// Density rule used by K-Algo and SP-Oracle to map an error parameter ε
  /// to a Steiner-point count per edge (capped to keep memory bounded; see
  /// docs/reproduction.md, substitution 3).
  static uint32_t PointsPerEdgeForEpsilon(double epsilon);

  const TerrainMesh& mesh() const { return *mesh_; }
  size_t num_nodes() const { return node_pos_.size(); }
  size_t num_graph_edges() const { return adj_.size() / 2; }
  uint32_t points_per_edge() const { return points_per_edge_; }

  const Vec3& node_pos(uint32_t node) const { return node_pos_[node]; }
  /// node id of mesh vertex v (identity mapping).
  uint32_t VertexNode(uint32_t v) const { return v; }
  bool IsVertexNode(uint32_t node) const {
    return node < mesh_->num_vertices();
  }

  /// All graph nodes on the boundary of face f: its 3 vertices plus the
  /// Steiner points of its 3 edges. This is the attachment set X_s / X_t of
  /// the paper's SP-Oracle query (§4.2.1).
  void FaceNodes(uint32_t f, std::vector<uint32_t>* out) const;

  std::span<const GraphEdge> Neighbors(uint32_t node) const {
    return {adj_.data() + adj_offset_[node],
            adj_offset_[node + 1] - adj_offset_[node]};
  }

  size_t SizeBytes() const;

 private:
  SteinerGraph() = default;

  const TerrainMesh* mesh_ = nullptr;
  uint32_t points_per_edge_ = 0;
  std::vector<Vec3> node_pos_;
  // Steiner nodes of mesh edge e occupy ids [steiner_base_[e],
  // steiner_base_[e] + points_per_edge_).
  std::vector<uint32_t> steiner_base_;
  std::vector<uint32_t> adj_offset_;
  std::vector<GraphEdge> adj_;
};

}  // namespace tso

#endif  // TSO_GEODESIC_STEINER_GRAPH_H_
