#ifndef TSO_MESH_MESH_IO_H_
#define TSO_MESH_MESH_IO_H_

#include <string>

#include "mesh/terrain_mesh.h"

namespace tso {

/// Writes the mesh in OFF format.
Status WriteOff(const TerrainMesh& mesh, const std::string& path);

/// Reads a mesh in OFF format (triangles only). Malformed input — counts
/// the file is too short to hold, bad or non-finite coordinates, bad face
/// records — is InvalidArgument naming the record; never an exception.
StatusOr<TerrainMesh> ReadOff(const std::string& path);

/// Writes the mesh in Wavefront OBJ format (v / f records).
Status WriteObj(const TerrainMesh& mesh, const std::string& path);

/// Reads a Wavefront OBJ mesh (v / f records; faces must be triangles).
/// Errors are reported as for ReadOff; face indices must be 1-based and fit
/// a uint32 vertex id.
StatusOr<TerrainMesh> ReadObj(const std::string& path);

}  // namespace tso

#endif  // TSO_MESH_MESH_IO_H_
