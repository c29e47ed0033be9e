#include "oracle/oracle_serde.h"

#include <algorithm>
#include <cstring>
#include <fstream>

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
SectionDesc PodSection(uint32_t id, const std::vector<T>& v) {
  static_assert(kIsPodSerializable<T>);
  return {id, v.data(), v.size() * sizeof(T), v.size()};
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) return Status::IoError("cannot stat " + path);
  out->resize(static_cast<size_t>(size));
  in.seekg(0);
  if (size > 0 && !in.read(out->data(), size)) {
    return Status::IoError("read failed: " + path);
  }
  return Status::Ok();
}

/// Full structural validation of ingested perfect-hash tables: Lookup
/// indexes bucket_offset[b] + Mix(...) % width into the slot arrays, so
/// offsets must be monotone and bounded by consistent slot-array sizes, and
/// stored values must index into the pair list. MaterializeSeOracle runs it
/// on every owning oracle built from untrusted bytes. (The zero-copy
/// OracleView instead bounds-checks these indices per probe; see
/// oracle_view.cc.)
Status ValidateHashRaw(const PerfectHash::Raw& raw, uint64_t num_pairs) {
  if (raw.num_keys > 0) {
    if (raw.num_buckets == 0 ||
        raw.bucket_offset.size() != static_cast<size_t>(raw.num_buckets) + 1 ||
        raw.bucket_mul.size() != raw.num_buckets) {
      return Status::InvalidArgument("perfect hash tables inconsistent");
    }
    if (raw.bucket_offset.front() != 0) {
      return Status::InvalidArgument("perfect hash offset base");
    }
    for (size_t b = 0; b + 1 < raw.bucket_offset.size(); ++b) {
      if (raw.bucket_offset[b] > raw.bucket_offset[b + 1]) {
        return Status::InvalidArgument("perfect hash offsets not monotone");
      }
    }
    const size_t total_slots = raw.bucket_offset.back();
    if (raw.slot_key.size() != total_slots ||
        raw.slot_value.size() != total_slots ||
        raw.slot_used.size() != total_slots) {
      return Status::InvalidArgument("perfect hash slot arrays inconsistent");
    }
  }
  // Lookup results index into pairs; validate stored values.
  for (size_t i = 0; i < raw.slot_used.size(); ++i) {
    if (raw.slot_used[i] && raw.slot_value[i] >= num_pairs) {
      return Status::InvalidArgument("perfect hash value range");
    }
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeSeOracleFlat(const SeOracle& oracle) {
  return SerializeSeOracleFlat(oracle.epsilon(), oracle.pois(), oracle.tree(),
                               oracle.pair_set());
}

std::string SerializeSeOracleFlat(double epsilon,
                                  const std::vector<SurfacePoint>& pois,
                                  const CompressedTree& tree,
                                  const NodePairSet& pairs) {
  const PerfectHash::Raw& raw = pairs.hash().raw();

  FlatMeta meta{};
  meta.epsilon = epsilon;
  meta.num_pois = pois.size();
  meta.num_tree_nodes = tree.num_nodes();
  meta.tree_root = tree.root();
  meta.tree_height = tree.height();
  meta.num_pairs = pairs.size();
  meta.hash_mul1 = raw.mul1;
  meta.hash_num_keys = raw.num_keys;
  meta.hash_num_buckets = raw.num_buckets;
  meta.ancestor_stride = FlatAncestorStride(tree.height());

  // kFlatAncestors payload (minor 1): one AncestorArray row per POI, padded
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

  const SectionDesc sections[kFlatSectionCountMinor1] = {
      {kFlatMeta, &meta, sizeof(meta), 1},
      PodSection(kFlatPois, pois),
      PodSection(kFlatTreeNodes, tree.nodes()),
      PodSection(kFlatLeafOfPoi, tree.leaf_of_poi_map()),
      PodSection(kFlatPairs, pairs.pairs()),
      PodSection(kFlatHashBucketMul, raw.bucket_mul),
      PodSection(kFlatHashBucketOffset, raw.bucket_offset),
      PodSection(kFlatHashSlotKey, raw.slot_key),
      PodSection(kFlatHashSlotValue, raw.slot_value),
      PodSection(kFlatHashSlotUsed, raw.slot_used),
      PodSection(kFlatAncestors, ancestors),
  };

  // Lay out: header, section table, then 64-byte-aligned sections.
  FlatSectionEntry table[kFlatSectionCountMinor1] = {};
  uint64_t cursor =
      sizeof(FlatHeader) + kFlatSectionCountMinor1 * sizeof(FlatSectionEntry);
  for (uint32_t i = 0; i < kFlatSectionCountMinor1; ++i) {
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
  header.section_count = kFlatSectionCountMinor1;
  header.section_table_crc = Crc32(table, sizeof(table));

  std::string out;
  out.reserve(file_size);
  out.append(reinterpret_cast<const char*>(&header), sizeof(header));
  out.append(reinterpret_cast<const char*>(table), sizeof(table));
  for (uint32_t i = 0; i < kFlatSectionCountMinor1; ++i) {
    out.append(table[i].offset - out.size(), '\0');  // alignment padding
    out.append(static_cast<const char*>(sections[i].data),
               sections[i].size);
  }
  return out;
}

StatusOr<SeOracle> MaterializeSeOracle(std::string_view flat_blob) {
  // A one-time conversion can afford the full checksum pass on top of the
  // structural validation; the view also hands us typed spans to copy from.
  OracleView::Options verify;
  verify.verify_checksums = true;
  StatusOr<OracleView> view = OracleView::FromBuffer(flat_blob, verify);
  if (!view.ok()) return view.status();

  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(flat_blob);
  if (!info.ok()) return info.status();
  FlatMeta meta{};
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatMeta) {
      std::memcpy(&meta, flat_blob.data() + e.offset, sizeof(meta));
    }
  }

  std::vector<SurfacePoint> pois(view->pois().begin(), view->pois().end());

  CompressedTree tree;
  const CompressedTreeView& tv = view->tree();
  tree.mutable_nodes().assign(tv.nodes().begin(), tv.nodes().end());
  tree.mutable_leaf_of_poi().assign(tv.leaf_of_poi_map().begin(),
                                    tv.leaf_of_poi_map().end());
  tree.set_root(tv.root());
  tree.set_height(tv.height());

  FlatReader reader(flat_blob);
  PerfectHash::Raw raw;
  raw.mul1 = meta.hash_mul1;
  raw.num_buckets = meta.hash_num_buckets;
  raw.num_keys = meta.hash_num_keys;
  auto copy_section = [&](FlatSectionId id, auto* out_vec) -> Status {
    using T = typename std::remove_reference_t<
        decltype(*out_vec)>::value_type;
    for (const FlatSectionEntry& e : info->sections) {
      if (e.id != id) continue;
      std::span<const T> span;
      TSO_RETURN_IF_ERROR(reader.ViewArray<T>(e.offset, e.count, &span));
      out_vec->assign(span.begin(), span.end());
      return Status::Ok();
    }
    return Status::Internal("flat oracle: section missing after validation");
  };
  TSO_RETURN_IF_ERROR(copy_section(kFlatHashBucketMul, &raw.bucket_mul));
  TSO_RETURN_IF_ERROR(copy_section(kFlatHashBucketOffset, &raw.bucket_offset));
  TSO_RETURN_IF_ERROR(copy_section(kFlatHashSlotKey, &raw.slot_key));
  TSO_RETURN_IF_ERROR(copy_section(kFlatHashSlotValue, &raw.slot_value));
  TSO_RETURN_IF_ERROR(copy_section(kFlatHashSlotUsed, &raw.slot_used));

  std::vector<NodePair> pair_vec(view->pair_set().pairs().begin(),
                                 view->pair_set().pairs().end());
  // The view defers deep hash/pair validation to per-probe guards; an
  // owning oracle gets the full scan instead.
  TSO_RETURN_IF_ERROR(ValidateHashRaw(raw, pair_vec.size()));
  for (const NodePair& pair : pair_vec) {
    if (pair.a >= tree.num_nodes() || pair.b >= tree.num_nodes()) {
      return Status::InvalidArgument("flat oracle: pair node id range");
    }
  }
  NodePairSet pair_set = NodePairSet::FromParts(
      std::move(pair_vec), PerfectHash::FromRaw(std::move(raw)));
  return SeOracle::FromParts(meta.epsilon, std::move(pois), std::move(tree),
                             std::move(pair_set));
}

Status SaveSeOracleFlat(const SeOracle& oracle, const std::string& path) {
  TSO_FAILPOINT("flat.write.section");
  // Crash-safe publication: a killed builder never leaves a torn artifact
  // visible at `path` (see base/atomic_file.h).
  return WriteFileAtomic(path, SerializeSeOracleFlat(oracle));
}

StatusOr<SeOracle> LoadSeOracle(const std::string& path) {
  std::string blob;
  TSO_RETURN_IF_ERROR(ReadFileToString(path, &blob));
  if (!LooksLikeFlatOracle(blob)) {
    return Status::InvalidArgument(path + ": not a TSOFLAT oracle file");
  }
  return MaterializeSeOracle(blob);
}

}  // namespace tso
