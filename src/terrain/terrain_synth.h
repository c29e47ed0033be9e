#ifndef TSO_TERRAIN_TERRAIN_SYNTH_H_
#define TSO_TERRAIN_TERRAIN_SYNTH_H_

#include <cstdint>

#include "mesh/mesh_builder.h"

namespace tso {

/// Parameters of a deterministic synthetic terrain (fractional-Brownian
/// value noise, optionally ridged for mountainous relief).
///
/// These stand in for the proprietary DEM rasters used in the paper (see
/// docs/reproduction.md, substitution 1). The field is a continuous function of
/// (x, y), so the same terrain can be sampled at any resolution — which is
/// how the effect-of-N experiment re-meshes "the same region" (§5.2.1).
struct SynthSpec {
  double extent_x = 14000.0;  // metres
  double extent_y = 10000.0;
  double amplitude = 600.0;   // peak-to-valley vertical scale, metres
  double feature_size = 2500.0;  // wavelength of the largest landforms
  int octaves = 6;
  double lacunarity = 2.0;
  double gain = 0.5;
  bool ridged = true;  // ridged multifractal (mountains) vs rolling hills
  uint64_t seed = 1;
};

/// Continuous height field for `spec` at (x, y). Deterministic in
/// (spec.seed, x, y).
double SampleHeight(const SynthSpec& spec, double x, double y);

/// Samples the field on a grid with `width` x `height` vertices covering
/// spec.extent_x x spec.extent_y.
GridDem SynthesizeDem(const SynthSpec& spec, uint32_t width, uint32_t height);

/// Convenience: synthesize and triangulate with approximately
/// `target_vertices` vertices (aspect ratio follows the extents).
StatusOr<TerrainMesh> SynthesizeMesh(const SynthSpec& spec,
                                     uint32_t target_vertices);

}  // namespace tso

#endif  // TSO_TERRAIN_TERRAIN_SYNTH_H_
