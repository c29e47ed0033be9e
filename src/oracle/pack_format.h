#ifndef TSO_ORACLE_PACK_FORMAT_H_
#define TSO_ORACLE_PACK_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string_view>

#include "oracle/flat_format.h"

namespace tso {

/// The on-disk layout of an oracle pack: one file carrying many TSOFLAT
/// oracle shards plus the routing tables that bind them back into a single
/// logical oracle.
///
///   [PackHeader][section table: FlatSectionEntry × (3 + num_shards)]
///   [kPackMeta][kPackShardOfPoi][kPackShardOfNode][shard 0][shard 1]...
///
/// The framing deliberately reuses the flat format's machinery — the header
/// is FlatHeader-shaped (different magic), the section table is the same
/// CRC'd FlatSectionEntry array, sections are kFlatSectionAlign-aligned —
/// so pack validation is the flat validation sequence with a different
/// expected id set. Each shard section's payload is a complete, standalone
/// TSOFLAT file: shard i can be handed to OracleView::FromBuffer unchanged,
/// and `tso inspect` walks a pack by recursing into each shard.
///
/// Sharding model (see PairSource in oracle/distance_query.h): every shard
/// replicates the small sections (meta, POIs, tree, leaf map) and carries
/// the node-pair records of its nodes — the canonical record (a, b), a <= b,
/// lives in the shards of both `a` and `b` (once when they coincide), where
/// shard_of_node[n] = shard_of_poi[center(n)]. A probe for (a, b) goes to
/// shard_of_node[a], or to shard_of_node[b] when that shard is dead, and
/// either finds exactly the record a monolithic oracle would return:
/// answers are bit-identical by construction, for every shard count and
/// policy, and a degraded pack answers every query whose pair has a live
/// endpoint shard with the healthy pack's bits. Packs written before
/// TSOFLAT 3.0 hold each orientation (a, b) in shard(a) only; their shards
/// convert at open (OracleView::FromBuffer) and route the same way.
///
/// Versioning follows the flat format's policy: any change to this layout
/// bumps kPackFormatVersion.

inline constexpr char kPackMagic[8] = {'T', 'S', 'O', 'P',
                                       'A', 'C', 'K', '\n'};
inline constexpr uint32_t kPackFormatVersion = 1;

/// Pack section ids, in file order. The fixed sections come first, then one
/// section per shard at kPackShardBase + shard index.
enum PackSectionId : uint32_t {
  kPackMeta = 1,         // PackMeta × 1
  kPackShardOfPoi = 2,   // uint32 × num_pois  (POI → owning shard)
  kPackShardOfNode = 3,  // uint32 × num_tree_nodes (tree node → shard)
};
inline constexpr uint32_t kPackFixedSectionCount = 3;
inline constexpr uint32_t kPackShardBase = 16;
/// Sanity cap on the shard count: far above any useful partitioning, low
/// enough that a corrupt header cannot drive section-table allocation wild.
inline constexpr uint32_t kPackMaxShards = 4096;

const char* PackSectionName(uint32_t id);

/// How POIs were assigned to shards by the pack writer. Recorded in
/// PackMeta for inspection; routing itself only needs the tables.
enum class PackPolicy : uint32_t {
  kPoiRange = 1,  // shard_of_poi[p] = p * num_shards / num_pois
  kGeo = 2,       // POIs sorted by (x, y, id), split into equal runs
};

const char* PackPolicyName(PackPolicy policy);

/// The kPackMeta section: scalar pack parameters, one 64-byte struct.
/// Redundant with the shards' own FlatMeta sections by design — the loader
/// cross-checks them so a pack spliced together from mismatched oracles is
/// rejected instead of routing probes into the wrong tree.
struct PackMeta {
  double epsilon;
  uint64_t num_pois;
  uint64_t num_tree_nodes;
  uint64_t num_pairs_total;  // sum of the shards' stored pair counts
  uint32_t num_shards;
  uint32_t policy;  // PackPolicy
  uint64_t reserved0;
  uint64_t reserved1;
  uint64_t reserved2;
};
static_assert(sizeof(PackMeta) == 64 && alignof(PackMeta) == 8,
              "PackMeta layout is frozen");

/// Fixed 64-byte pack header at offset 0: FlatHeader with the pack magic
/// and version. Reusing the struct keeps one validation implementation.
inline bool LooksLikeOraclePack(std::string_view buffer) {
  return buffer.size() >= sizeof(kPackMagic) &&
         std::memcmp(buffer.data(), kPackMagic, sizeof(kPackMagic)) == 0;
}

}  // namespace tso

#endif  // TSO_ORACLE_PACK_FORMAT_H_
