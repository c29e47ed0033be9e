#include "oracle/oracle_serde.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/atomic_file.h"
#include "base/crc32.h"
#include "base/failpoint.h"
#include "base/serde.h"
#include "oracle/flat_format.h"

namespace tso {
namespace {

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

/// One section to be laid out by the flat writer.
struct SectionDesc {
  uint32_t id;
  const void* data;
  uint64_t size;   // payload bytes
  uint64_t count;  // element count
};

template <typename T>
SectionDesc PodSection(uint32_t id, std::span<const T> v) {
  static_assert(kIsPodSerializable<T>);
  return {id, v.data(), v.size() * sizeof(T), v.size()};
}

}  // namespace

std::string SerializeSeOracleFlat(const SeOracle& oracle) {
  return std::string(oracle.buffer());
}

std::string SerializeSeOracleFlat(double epsilon,
                                  std::span<const SurfacePoint> pois,
                                  const CompressedTreeView& tree,
                                  const NodePairSetView& pairs) {
  const PerfectHashView& hash = pairs.hash();

  FlatMeta meta{};
  meta.epsilon = epsilon;
  meta.num_pois = pois.size();
  meta.num_tree_nodes = tree.num_nodes();
  meta.tree_root = tree.root();
  meta.tree_height = tree.height();
  meta.num_pairs = pairs.size();
  meta.hash_seed = hash.seed();
  meta.hash_num_slots = hash.num_slots();
  meta.hash_num_buckets = hash.num_buckets();
  meta.ancestor_stride = FlatAncestorStride(tree.height());

  // kFlatAncestors payload: one AncestorArray row per POI, padded
  // with kInvalidId to a cache-line multiple so each row is line-aligned
  // within the 64-byte-aligned section. Deterministic: a pure integer walk
  // over the tree section.
  std::vector<uint32_t> ancestors(pois.size() *
                                      static_cast<size_t>(meta.ancestor_stride),
                                  kInvalidId);
  std::vector<uint32_t> row;
  for (size_t p = 0; p < pois.size(); ++p) {
    tree.AncestorArray(tree.leaf_of_poi(static_cast<uint32_t>(p)), &row);
    std::copy(row.begin(), row.end(),
              ancestors.begin() + p * meta.ancestor_stride);
  }

  // In kFlatSectionOrderV2 order.
  const SectionDesc sections[kFlatSectionCountV2] = {
      {kFlatMeta, &meta, sizeof(meta), 1},
      PodSection(kFlatPois, pois),
      PodSection(kFlatTreeNodes, tree.nodes()),
      PodSection(kFlatLeafOfPoi, tree.leaf_of_poi_map()),
      PodSection(kFlatPilots, hash.pilots()),
      PodSection(kFlatPairs, pairs.records()),
      PodSection(kFlatAncestors, std::span<const uint32_t>(ancestors)),
  };

  // Lay out: header, section table, then 64-byte-aligned sections.
  FlatSectionEntry table[kFlatSectionCountV2] = {};
  uint64_t cursor =
      sizeof(FlatHeader) + kFlatSectionCountV2 * sizeof(FlatSectionEntry);
  for (uint32_t i = 0; i < kFlatSectionCountV2; ++i) {
    const SectionDesc& s = sections[i];
    table[i].id = s.id;
    table[i].offset = AlignUp(cursor, kFlatSectionAlign);
    table[i].size = s.size;
    table[i].count = s.count;
    table[i].crc32 = Crc32(s.data, s.size);
    cursor = table[i].offset + s.size;
  }
  const uint64_t file_size = cursor;

  FlatHeader header{};
  std::memcpy(header.magic, kFlatMagic, sizeof(kFlatMagic));
  header.endian_tag = kFlatEndianTag;
  header.version = kFlatFormatVersion;
  header.minor_version = kFlatFormatMinorVersion;
  header.file_size = file_size;
  header.section_count = kFlatSectionCountV2;
  header.section_table_crc = Crc32(table, sizeof(table));

  std::string out;
  out.reserve(file_size);
  out.append(reinterpret_cast<const char*>(&header), sizeof(header));
  out.append(reinterpret_cast<const char*>(table), sizeof(table));
  for (uint32_t i = 0; i < kFlatSectionCountV2; ++i) {
    out.append(table[i].offset - out.size(), '\0');  // alignment padding
    out.append(static_cast<const char*>(sections[i].data),
               sections[i].size);
  }
  return out;
}

Status SaveSeOracleFlat(const SeOracle& oracle, const std::string& path) {
  TSO_FAILPOINT("flat.write.section");
  // Crash-safe publication: a killed builder never leaves a torn artifact
  // visible at `path` (see base/atomic_file.h).
  return WriteFileAtomic(path, oracle.buffer());
}

}  // namespace tso
