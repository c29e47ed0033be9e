#ifndef TSO_TERRAIN_DATASET_H_
#define TSO_TERRAIN_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "mesh/point_locator.h"
#include "mesh/terrain_mesh.h"

namespace tso {

/// The paper's three benchmark regions (Table 2), plus the "smaller version
/// of SF" used in Figure 8.
enum class PaperDataset {
  kBearHead,          // BH: 14 km x 10 km, mountainous
  kEaglePeak,         // EP: 10.7 km x 14 km, mountainous
  kSanFrancisco,      // SF: 14 km x 11.1 km, hilly urban-ish
  kSanFranciscoSmall  // SF-small: ~1k vertices, 60 POIs (Figure 8)
};

const char* PaperDatasetName(PaperDataset d);

/// A terrain + POI bundle with the metadata Table 2 reports.
struct Dataset {
  std::string name;
  std::unique_ptr<TerrainMesh> mesh;
  std::unique_ptr<PointLocator> locator;
  std::vector<SurfacePoint> pois;
  double region_x = 0.0;   // metres
  double region_y = 0.0;
  double resolution = 0.0;  // approximate grid resolution, metres
  uint64_t seed = 0;

  size_t N() const { return mesh->num_vertices(); }
  size_t n() const { return pois.size(); }
};

/// Materializes a scaled-down stand-in for a paper dataset (see
/// docs/reproduction.md, substitution 1). `target_vertices` and `num_pois` default to 0 =
/// "suite-scale defaults" chosen so the full benchmark suite runs in minutes.
StatusOr<Dataset> MakePaperDataset(PaperDataset which,
                                   uint32_t target_vertices = 0,
                                   size_t num_pois = 0, uint64_t seed = 42);

/// Builds a dataset from an arbitrary mesh (takes ownership) with uniformly
/// sampled POIs.
StatusOr<Dataset> MakeDataset(std::string name, TerrainMesh mesh,
                              size_t num_pois, uint64_t seed);

}  // namespace tso

#endif  // TSO_TERRAIN_DATASET_H_
