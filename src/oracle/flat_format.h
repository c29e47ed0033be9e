#ifndef TSO_ORACLE_FLAT_FORMAT_H_
#define TSO_ORACLE_FLAT_FORMAT_H_

#include <bit>
#include <cstdint>
#include <iterator>

#include "mesh/terrain_mesh.h"
#include "oracle/compressed_tree.h"
#include "oracle/node_pair_set.h"

namespace tso {

/// The frozen on-disk layout of a serialized SE oracle ("flat" format):
///
///   [FlatHeader][section table: FlatSectionEntry × N][sections ...]
///
/// Every section is an aligned little-endian POD array readable in place —
/// OracleView answers queries straight from a mapped file without
/// materializing a single vector. See docs/oracle-format.md for the full
/// layout, validation, and versioning policy. Any change to these structs,
/// to CompressedTreeNode/NodePair/SurfacePoint, or to the section list is a
/// format change: bump kFlatFormatVersion and regenerate the golden files
/// under tests/golden/.
static_assert(std::endian::native == std::endian::little,
              "the flat oracle format is little-endian on disk and is read "
              "in place");

inline constexpr char kFlatMagic[8] = {'T', 'S', 'O', 'F',
                                       'L', 'A', 'T', '\n'};
/// Version 4 stores the node pair set as two sections in the slot order of
/// a pilot-table perfect hash (base/perfect_hash.h): one key per slot, 4
/// bytes wide when the tree has at most kNarrowPairKeyIds nodes and 8
/// otherwise, and one f64 distance per slot. Version 3 stored the same
/// pairs, one canonical record a <= b per unordered pair, as 16-byte
/// NodePair records. Version 2 had the v3 sections but stored both
/// orientations. Version 1 (minors 0 and 1) also stored both, indexed by a
/// separate FKS table. Readers open v1-v3 files by converting them to v4 in
/// memory (OracleView::FromBuffer).
inline constexpr uint32_t kFlatFormatVersion = 4;
/// Layout revision within kFlatFormatVersion. Readers accept any minor <=
/// the build's kFlatFormatMinorVersion; writers always emit the newest.
/// See docs/oracle-format.md for the versioning policy.
inline constexpr uint32_t kFlatFormatMinorVersion = 0;
/// Written verbatim as 4 bytes; a big-endian producer would store the
/// reversed byte pattern, so the loader detects foreign-arch files cleanly.
inline constexpr uint32_t kFlatEndianTag = 0x01020304u;
/// Every section offset is a multiple of this (cache-line alignment,
/// comfortably above the 8-byte requirement of the widest element).
inline constexpr uint64_t kFlatSectionAlign = 64;

/// Section ids. The loader requires exactly the set of the file's version,
/// each exactly once, in the order of that version (kFlatSectionOrderV4,
/// kFlatSectionOrderV2 for v2 and v3, the v1 orders in oracle_view.cc).
enum FlatSectionId : uint32_t {
  kFlatMeta = 1,       // FlatMeta × 1
  kFlatPois = 2,       // SurfacePoint × num_pois
  kFlatTreeNodes = 3,  // CompressedTreeNode × num_tree_nodes
  kFlatLeafOfPoi = 4,  // uint32 × num_pois
  // v1-v3 only, read for conversion. v2/v3: NodePair × hash_num_slots, in
  // hash-slot order (empty slots hold kEmptyPairSlot; v3 records have
  // a <= b). v1: NodePair × num_pairs, sorted by (a, b).
  kFlatPairs = 5,
  // v1 only: the FKS tables, skipped by the v1 converter.
  kFlatHashBucketMul = 6,
  kFlatHashBucketOffset = 7,
  kFlatHashSlotKey = 8,
  kFlatHashSlotValue = 9,
  kFlatHashSlotUsed = 10,
  kFlatAncestors = 11,  // uint32 × (num_pois × ancestor_stride); v1.1 and up
  kFlatPilots = 12,     // v2 and up: uint16 × hash_num_buckets
  // v4: uint32 (a << 16 | b) or uint64 PairKey(a, b) × hash_num_slots, in
  // hash-slot order; 4-byte keys iff NarrowPairKeys(num_tree_nodes).
  kFlatPairKeys = 13,
  kFlatPairDistances = 14,  // v4: double × hash_num_slots, same order
};
/// The sections of a v4 file, in file order.
inline constexpr FlatSectionId kFlatSectionOrderV4[] = {
    kFlatMeta,     kFlatPois,          kFlatTreeNodes, kFlatLeafOfPoi,
    kFlatPilots,   kFlatPairKeys,      kFlatPairDistances,
    kFlatAncestors};
inline constexpr uint32_t kFlatSectionCountV4 = std::size(kFlatSectionOrderV4);
/// The sections of a v2 or v3 file, in file order.
inline constexpr FlatSectionId kFlatSectionOrderV2[] = {
    kFlatMeta,   kFlatPois,  kFlatTreeNodes, kFlatLeafOfPoi,
    kFlatPilots, kFlatPairs, kFlatAncestors};
inline constexpr uint32_t kFlatSectionCountV2 = std::size(kFlatSectionOrderV2);
/// Section counts of v1 minor 0 and minor 1 files.
inline constexpr uint32_t kFlatSectionCount = 10;
inline constexpr uint32_t kFlatSectionCountMinor1 = 11;

/// Row stride, in uint32 elements, of the kFlatAncestors section for a tree
/// of the given height: one row per POI holding its leaf-to-root ancestor
/// array by layer (height + 1 entries, kInvalidId-padded), rounded up so
/// every row starts on its own cache line within the 64-byte-aligned
/// section.
inline constexpr uint32_t FlatAncestorStride(int32_t tree_height) {
  const uint32_t entries = static_cast<uint32_t>(tree_height) + 1;
  const uint32_t per_line =
      static_cast<uint32_t>(kFlatSectionAlign / sizeof(uint32_t));
  return (entries + per_line - 1) / per_line * per_line;
}

const char* FlatSectionName(uint32_t id);

/// Fixed 64-byte file header at offset 0.
struct FlatHeader {
  char magic[8];        // kFlatMagic
  uint32_t endian_tag;  // kFlatEndianTag, as written by the producer
  uint32_t version;     // kFlatFormatVersion (1-3: converted at open)
  uint64_t file_size;   // total bytes: cheap truncation detection
  uint32_t section_count;      // kFlatSectionCountV4 (v1: 10/11, v2/v3: 7)
  uint32_t section_table_crc;  // CRC32 of the section-table bytes
  // Carved out of the original reserved0 (minor-0 writers zeroed it, which
  // reads back as minor_version == 0 — exactly right).
  uint32_t minor_version;  // kFlatFormatMinorVersion at write time
  uint32_t reserved0;
  uint64_t reserved1;
  uint64_t reserved2;
  uint64_t reserved3;
};
static_assert(sizeof(FlatHeader) == 64 && alignof(FlatHeader) == 8,
              "FlatHeader layout is frozen");

/// One row of the section table (immediately after the header).
struct FlatSectionEntry {
  uint32_t id;       // FlatSectionId
  uint32_t crc32;    // CRC32 of the section's `size` payload bytes
  uint64_t offset;   // from file start; kFlatSectionAlign-aligned
  uint64_t size;     // payload bytes (excluding inter-section padding)
  uint64_t count;    // element count
  uint64_t reserved;
};
static_assert(sizeof(FlatSectionEntry) == 40 &&
                  alignof(FlatSectionEntry) == 8,
              "FlatSectionEntry layout is frozen");

/// The kFlatMeta section: scalar oracle parameters, one 64-byte struct.
struct FlatMeta {
  double epsilon;
  uint64_t num_pois;
  uint64_t num_tree_nodes;
  uint32_t tree_root;
  int32_t tree_height;
  uint64_t num_pairs;
  // The pilot hash (PerfectHashView). In v1 files these three fields held
  // the FKS multiplier, key count and bucket count; the converter ignores
  // them.
  uint64_t hash_seed;
  uint64_t hash_num_slots;    // key and distance count (v2/v3: records)
  uint32_t hash_num_buckets;  // kFlatPilots count
  // Row stride, in uint32 elements, of the kFlatAncestors section:
  // FlatAncestorStride(tree_height), or 0 in a v1.0 file (no ancestors).
  uint32_t ancestor_stride;
};
static_assert(sizeof(FlatMeta) == 64 && alignof(FlatMeta) == 8,
              "FlatMeta layout is frozen");

// The in-place element types must themselves be padding-free (their sizeof
// equals the sum of their member sizes) so section bytes, and therefore the
// golden files and CRCs, are deterministic.
static_assert(sizeof(SurfacePoint) == 32 && alignof(SurfacePoint) == 8,
              "SurfacePoint is mapped in place by the flat oracle format");
static_assert(sizeof(CompressedTreeNode) == 32);
static_assert(sizeof(NodePair) == 16);

/// The record a v2 or v3 file stores in a hash slot that no pair maps to.
/// kInvalidId is never a tree node id, so no conversion keeps it.
inline constexpr NodePair kEmptyPairSlot = {kInvalidId, kInvalidId, 0.0};
inline bool IsEmptyPairSlot(const NodePair& r) {
  return r.a == kInvalidId && r.b == kInvalidId;
}

}  // namespace tso

#endif  // TSO_ORACLE_FLAT_FORMAT_H_
