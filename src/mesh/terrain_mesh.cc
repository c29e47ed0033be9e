#include "mesh/terrain_mesh.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "base/logging.h"
#include "geom/triangle.h"

namespace tso {
namespace {

// Packs an undirected vertex pair into a 64-bit key (u < v).
uint64_t UndirectedKey(uint32_t u, uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// True when two faces use the same three vertices, in any order.
bool SameVertexSet(std::array<uint32_t, 3> x, std::array<uint32_t, 3> y) {
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

std::string EdgeName(uint32_t u, uint32_t v) {
  return "edge (" + std::to_string(std::min(u, v)) + ", " +
         std::to_string(std::max(u, v)) + ")";
}

}  // namespace

StatusOr<TerrainMesh> TerrainMesh::FromSoup(
    std::vector<Vec3> vertices, std::vector<std::array<uint32_t, 3>> faces) {
  if (vertices.empty() || faces.empty()) {
    return Status::InvalidArgument("mesh must have vertices and faces");
  }
  const uint32_t n = static_cast<uint32_t>(vertices.size());
  for (size_t f = 0; f < faces.size(); ++f) {
    const auto& tri = faces[f];
    for (int i = 0; i < 3; ++i) {
      if (tri[i] >= n) {
        return Status::InvalidArgument("face " + std::to_string(f) +
                                       " references missing vertex");
      }
    }
    if (tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2]) {
      return Status::InvalidArgument(
          "face " + std::to_string(f) + " has repeated vertices (" +
          std::to_string(tri[0]) + ", " + std::to_string(tri[1]) + ", " +
          std::to_string(tri[2]) + ")");
    }
    if (IsDegenerate(vertices[tri[0]], vertices[tri[1]], vertices[tri[2]])) {
      return Status::InvalidArgument("face " + std::to_string(f) +
                                     " is degenerate");
    }
  }

  TerrainMesh mesh;
  mesh.vertices_ = std::move(vertices);
  mesh.faces_ = std::move(faces);
  TSO_RETURN_IF_ERROR(mesh.BuildAdjacency());
  for (const Vec3& p : mesh.vertices_) mesh.bbox_.Extend(p);
  return mesh;
}

Status TerrainMesh::BuildAdjacency() {
  std::unordered_map<uint64_t, uint32_t> edge_index;
  edge_index.reserve(faces_.size() * 2);
  face_edges_.assign(faces_.size(), {kInvalidId, kInvalidId, kInvalidId});

  for (uint32_t f = 0; f < faces_.size(); ++f) {
    for (int i = 0; i < 3; ++i) {
      const uint32_t u = faces_[f][i];
      const uint32_t v = faces_[f][(i + 1) % 3];
      const uint64_t key = UndirectedKey(u, v);
      auto it = edge_index.find(key);
      if (it == edge_index.end()) {
        Edge e;
        e.v0 = std::min(u, v);
        e.v1 = std::max(u, v);
        e.f0 = f;
        e.f1 = kInvalidId;
        e.length = Distance(vertices_[u], vertices_[v]);
        const uint32_t id = static_cast<uint32_t>(edges_.size());
        edges_.push_back(e);
        edge_index.emplace(key, id);
        face_edges_[f][i] = id;
      } else {
        Edge& e = edges_[it->second];
        if (e.f1 != kInvalidId) {
          return Status::InvalidArgument(
              "non-manifold " + EdgeName(u, v) + " shared by faces " +
              std::to_string(e.f0) + ", " + std::to_string(e.f1) + " and " +
              std::to_string(f));
        }
        if (e.f0 == f) {
          return Status::InvalidArgument("face " + std::to_string(f) +
                                         " repeats " + EdgeName(u, v));
        }
        if (SameVertexSet(faces_[e.f0], faces_[f])) {
          return Status::InvalidArgument(
              "faces " + std::to_string(e.f0) + " and " + std::to_string(f) +
              " are duplicates sharing " + EdgeName(u, v));
        }
        e.f1 = f;
        face_edges_[f][i] = it->second;
      }
    }
  }

  // CSR: vertex -> incident edges.
  vertex_edge_offset_.assign(vertices_.size() + 1, 0);
  for (const Edge& e : edges_) {
    ++vertex_edge_offset_[e.v0 + 1];
    ++vertex_edge_offset_[e.v1 + 1];
  }
  for (size_t v = 0; v < vertices_.size(); ++v) {
    vertex_edge_offset_[v + 1] += vertex_edge_offset_[v];
  }
  edge_adj_.assign(vertex_edge_offset_.back(), 0);
  {
    std::vector<uint32_t> cursor(vertex_edge_offset_.begin(),
                                 vertex_edge_offset_.end() - 1);
    for (uint32_t e = 0; e < edges_.size(); ++e) {
      edge_adj_[cursor[edges_[e].v0]++] = e;
      edge_adj_[cursor[edges_[e].v1]++] = e;
    }
  }

  // CSR: vertex -> incident faces.
  vertex_face_offset_.assign(vertices_.size() + 1, 0);
  for (const auto& tri : faces_) {
    for (int i = 0; i < 3; ++i) ++vertex_face_offset_[tri[i] + 1];
  }
  for (size_t v = 0; v < vertices_.size(); ++v) {
    vertex_face_offset_[v + 1] += vertex_face_offset_[v];
  }
  face_adj_.assign(vertex_face_offset_.back(), 0);
  {
    std::vector<uint32_t> cursor(vertex_face_offset_.begin(),
                                 vertex_face_offset_.end() - 1);
    for (uint32_t f = 0; f < faces_.size(); ++f) {
      for (int i = 0; i < 3; ++i) face_adj_[cursor[faces_[f][i]]++] = f;
    }
  }

  // Isolated vertices would break SSAD initialization; reject them.
  for (size_t v = 0; v < vertices_.size(); ++v) {
    if (vertex_edge_offset_[v + 1] == vertex_edge_offset_[v]) {
      return Status::InvalidArgument("isolated vertex " + std::to_string(v));
    }
  }
  return Status::Ok();
}

uint32_t TerrainMesh::opposite_vertex(uint32_t f, uint32_t e) const {
  const Edge& ed = edges_[e];
  for (int i = 0; i < 3; ++i) {
    const uint32_t v = faces_[f][i];
    if (v != ed.v0 && v != ed.v1) return v;
  }
  return kInvalidId;
}

uint32_t TerrainMesh::edge_between(uint32_t u, uint32_t v) const {
  for (uint32_t e : vertex_edges(u)) {
    const Edge& ed = edges_[e];
    if ((ed.v0 == u && ed.v1 == v) || (ed.v0 == v && ed.v1 == u)) return e;
  }
  return kInvalidId;
}

double TerrainMesh::FaceArea(uint32_t f) const {
  const auto& tri = faces_[f];
  return TriangleArea(vertices_[tri[0]], vertices_[tri[1]], vertices_[tri[2]]);
}

double TerrainMesh::TotalArea() const {
  double area = 0.0;
  for (uint32_t f = 0; f < faces_.size(); ++f) area += FaceArea(f);
  return area;
}

double TerrainMesh::VertexAngleSum(uint32_t v) const {
  double sum = 0.0;
  for (uint32_t f : vertex_faces(v)) {
    const auto& tri = faces_[f];
    for (int i = 0; i < 3; ++i) {
      if (tri[i] == v) {
        sum += AngleAt(vertices_[v], vertices_[tri[(i + 1) % 3]],
                       vertices_[tri[(i + 2) % 3]]);
        break;
      }
    }
  }
  return sum;
}

double TerrainMesh::MinInnerAngle() const {
  double min_angle = M_PI;
  for (const auto& tri : faces_) {
    min_angle = std::min(
        min_angle,
        MinAngle(vertices_[tri[0]], vertices_[tri[1]], vertices_[tri[2]]));
  }
  return min_angle;
}

double TerrainMesh::MinEdgeLength() const {
  double m = std::numeric_limits<double>::infinity();
  for (const Edge& e : edges_) m = std::min(m, e.length);
  return m;
}

double TerrainMesh::MaxEdgeLength() const {
  double m = 0.0;
  for (const Edge& e : edges_) m = std::max(m, e.length);
  return m;
}

bool TerrainMesh::IsBoundaryVertex(uint32_t v) const {
  for (uint32_t e : vertex_edges(v)) {
    if (edges_[e].f1 == kInvalidId) return true;
  }
  return false;
}

Vec3 TerrainMesh::FaceCentroid(uint32_t f) const {
  const auto& tri = faces_[f];
  return (vertices_[tri[0]] + vertices_[tri[1]] + vertices_[tri[2]]) / 3.0;
}

Status TerrainMesh::Validate() const {
  for (uint32_t f = 0; f < faces_.size(); ++f) {
    for (int i = 0; i < 3; ++i) {
      const uint32_t e = face_edges_[f][i];
      if (e == kInvalidId || e >= edges_.size()) {
        return Status::Internal("face_edges out of range");
      }
      const Edge& ed = edges_[e];
      if (ed.f0 != f && ed.f1 != f) {
        return Status::Internal("face_edges inconsistent with edge faces");
      }
      const uint32_t u = faces_[f][i];
      const uint32_t v = faces_[f][(i + 1) % 3];
      if (UndirectedKey(u, v) != UndirectedKey(ed.v0, ed.v1)) {
        return Status::Internal("face edge endpoints mismatch");
      }
    }
  }
  for (uint32_t e = 0; e < edges_.size(); ++e) {
    const Edge& ed = edges_[e];
    if (std::abs(ed.length - Distance(vertices_[ed.v0], vertices_[ed.v1])) >
        1e-9 * (1.0 + ed.length)) {
      return Status::Internal("edge length stale");
    }
  }
  return Status::Ok();
}

std::string TerrainMesh::DebugString() const {
  std::ostringstream os;
  os << "TerrainMesh{N=" << num_vertices() << ", E=" << num_edges()
     << ", F=" << num_faces() << ", area=" << TotalArea() << "}";
  return os.str();
}

}  // namespace tso
