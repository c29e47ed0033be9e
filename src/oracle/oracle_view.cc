#include "oracle/oracle_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "base/crc32.h"
#include "base/failpoint.h"
#include "base/serde.h"

namespace tso {
namespace {

/// The fixed section order of format version 1 (see flat_format.h). A
/// minor-0 file carries exactly the first kFlatSectionCount entries; later
/// minors only append, so every minor's order is a prefix of this array.
constexpr FlatSectionId kSectionOrder[kFlatSectionCountMinor1] = {
    kFlatMeta,          kFlatPois,          kFlatTreeNodes,
    kFlatLeafOfPoi,     kFlatPairs,         kFlatHashBucketMul,
    kFlatHashBucketOffset,
    kFlatHashSlotKey,   kFlatHashSlotValue, kFlatHashSlotUsed,
    kFlatAncestors};

Status SectionError(uint32_t id, const char* what) {
  return Status::InvalidArgument(std::string("flat oracle: section ") +
                                 FlatSectionName(id) + ": " + what);
}

/// Finds the entry for `id`; ReadFlatFileInfo already guarantees presence.
const FlatSectionEntry& Section(const FlatFileInfo& info, FlatSectionId id) {
  for (const FlatSectionEntry& e : info.sections) {
    if (e.id == id) return e;
  }
  // Unreachable after validation; keep the compiler happy.
  return info.sections.front();
}

/// Maps section `id` as `count` elements of T, checking the element size
/// against the table's byte size.
template <typename T>
Status ViewSection(const FlatReader& reader, const FlatFileInfo& info,
                   FlatSectionId id, std::span<const T>* out) {
  const FlatSectionEntry& e = Section(info, id);
  if (e.size != e.count * sizeof(T)) {
    return SectionError(id, "size does not match element count");
  }
  TSO_RETURN_IF_ERROR(reader.ViewArray<T>(e.offset, e.count, out));
  return Status::Ok();
}

Status VerifySectionChecksums(const FlatReader& reader,
                              const FlatFileInfo& info) {
  TSO_FAILPOINT("flat.verify.crc");
  for (const FlatSectionEntry& e : info.sections) {
    std::string_view bytes;
    TSO_RETURN_IF_ERROR(reader.ViewBytes(e.offset, e.size, &bytes));
    const uint32_t crc = Crc32(bytes.data(), bytes.size());
    if (crc != e.crc32) {
      return Status::InvalidArgument(std::string("flat oracle: section ") +
                              FlatSectionName(e.id) +
                              " checksum mismatch (corrupt file)");
    }
  }
  return Status::Ok();
}

/// Structural validation of the mapped content: after this passes, every
/// index a query can follow stays in bounds, and every parent walk
/// terminates. Deliberately cheaper than a full content scan: only the
/// tree sections (O(n) with n = POIs, the small part
/// of the file) are walked, because the tree traversal dereferences their
/// links unguarded on the hot path. The big sections — node pairs and the
/// perfect-hash tables, the bulk of the bytes — need no upfront scan: their
/// only query-time consumers (PerfectHashView::Lookup and
/// NodePairSetView::Lookup) bounds-check the indices they read, so a
/// corrupt table degrades to NotFound instead of an out-of-bounds access.
/// That keeps Open at O(header + n) rather than O(file size); enable
/// Options::verify_checksums to detect (not just survive) corruption.
Status ValidateStructure(const FlatMeta& meta,
                         std::span<const SurfacePoint> pois,
                         std::span<const CompressedTreeNode> nodes,
                         std::span<const uint32_t> leaf_of_poi,
                         std::span<const NodePair> pairs,
                         std::span<const uint32_t> bucket_offset,
                         std::span<const uint64_t> slot_key,
                         std::span<const uint64_t> slot_value,
                         std::span<const uint8_t> slot_used) {
  if (!(meta.epsilon > 0.0) || !std::isfinite(meta.epsilon)) {
    return Status::InvalidArgument("flat oracle: epsilon out of range");
  }
  const uint64_t n = meta.num_pois;
  const uint64_t num_nodes = meta.num_tree_nodes;
  if (n == 0) return Status::InvalidArgument("flat oracle: no POIs");
  if (num_nodes == 0 || num_nodes > 2 * n + 1) {
    return Status::InvalidArgument("flat oracle: node count");
  }
  if (meta.tree_root >= num_nodes || meta.tree_height < 0 ||
      meta.tree_height > 64) {
    return Status::InvalidArgument(
        "flat oracle: tree root/height out of range");
  }
  (void)pois;  // POI content is free-form geometry; only the count matters.
  for (const CompressedTreeNode& node : nodes) {
    if (node.center >= n || node.layer < 0 ||
        node.layer > meta.tree_height) {
      return Status::InvalidArgument(
          "flat oracle: tree node fields out of range");
    }
    for (uint32_t link : {node.parent, node.first_child, node.next_sibling}) {
      if (link != kInvalidId && link >= num_nodes) {
        return Status::InvalidArgument("flat oracle: tree link out of range");
      }
    }
  }
  // Acyclicity: parents must live on strictly higher layers, so any parent
  // walk terminates within height+1 steps.
  for (const CompressedTreeNode& node : nodes) {
    if (node.parent != kInvalidId &&
        nodes[node.parent].layer >= node.layer) {
      return Status::InvalidArgument(
          "flat oracle: tree parent layer not decreasing");
    }
  }
  // Child lists: exact, acyclic chains (see ValidateTreeChildLists), so
  // the best-first tree traversals (KnnQueryPruned) terminate on any
  // opened view.
  TSO_RETURN_IF_ERROR(ValidateTreeChildLists(nodes));
  for (uint32_t leaf : leaf_of_poi) {
    if (leaf >= num_nodes) {
      return Status::InvalidArgument("flat oracle: leaf id range");
    }
  }
  // Pair contents and the hash tables get no content scan (see the function
  // comment) — only the O(1) shape checks that the probe's guards rely on:
  // Lookup indexes all three slot arrays with one bounds-checked slot, so
  // they must be equally long, and a non-empty table needs buckets.
  (void)pairs;
  if (meta.hash_num_keys > 0 && meta.hash_num_buckets == 0) {
    return Status::InvalidArgument(
        "flat oracle: perfect hash tables inconsistent");
  }
  if (slot_key.size() != slot_used.size() ||
      slot_value.size() != slot_used.size()) {
    return Status::InvalidArgument(
        "flat oracle: perfect hash slot arrays inconsistent");
  }
  (void)bucket_offset;  // size checked against meta by the caller
  return Status::Ok();
}

/// The precomputed ancestor table (flat minor >= 1) is read unguarded on
/// the hot path — its rows feed tree.node() in the candidate passes — so
/// every row must equal the leaf-to-root walk it caches, and the padding
/// must be kInvalidId (i.e. never a dereferenceable id). O(n·h), the same
/// budget as the other tree scans above.
Status ValidateAncestorRows(const CompressedTreeView& tree,
                            std::span<const uint32_t> rows, uint32_t stride) {
  std::vector<uint32_t> walk;
  const size_t entries = static_cast<size_t>(tree.height()) + 1;
  for (size_t p = 0; p < tree.num_pois(); ++p) {
    const auto row = rows.subspan(p * stride, stride);
    tree.AncestorArray(tree.leaf_of_poi(static_cast<uint32_t>(p)), &walk);
    if (!std::equal(walk.begin(), walk.end(), row.begin())) {
      return Status::InvalidArgument(
          "flat oracle: ancestor table row disagrees with the tree walk");
    }
    for (size_t i = entries; i < stride; ++i) {
      if (row[i] != kInvalidId) {
        return Status::InvalidArgument(
            "flat oracle: ancestor table padding not kInvalidId");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

const char* FlatSectionName(uint32_t id) {
  switch (id) {
    case kFlatMeta:
      return "meta";
    case kFlatPois:
      return "pois";
    case kFlatTreeNodes:
      return "tree-nodes";
    case kFlatLeafOfPoi:
      return "leaf-of-poi";
    case kFlatPairs:
      return "node-pairs";
    case kFlatHashBucketMul:
      return "hash-bucket-mul";
    case kFlatHashBucketOffset:
      return "hash-bucket-offset";
    case kFlatHashSlotKey:
      return "hash-slot-key";
    case kFlatHashSlotValue:
      return "hash-slot-value";
    case kFlatHashSlotUsed:
      return "hash-slot-used";
    case kFlatAncestors:
      return "ancestors";
    default:
      return "unknown";
  }
}

bool LooksLikeFlatOracle(std::string_view buffer) {
  return buffer.size() >= sizeof(kFlatMagic) &&
         std::memcmp(buffer.data(), kFlatMagic, sizeof(kFlatMagic)) == 0;
}

StatusOr<FlatFileInfo> ReadFlatFileInfo(std::string_view buffer) {
  // Magic first, so any non-oracle input (even one shorter than a header)
  // is InvalidArgument rather than a truncation.
  if (!LooksLikeFlatOracle(buffer)) {
    return Status::InvalidArgument("flat oracle: bad magic");
  }
  FlatReader reader(buffer);
  FlatFileInfo info;
  TSO_RETURN_IF_ERROR(reader.ReadPod(0, &info.header));
  const FlatHeader& h = info.header;
  if (h.endian_tag != kFlatEndianTag) {
    return Status::InvalidArgument(
        "flat oracle: endianness mismatch (file written on a foreign "
        "architecture)");
  }
  if (h.version != kFlatFormatVersion) {
    return Status::InvalidArgument("flat oracle: unsupported format version");
  }
  if (h.minor_version > kFlatFormatMinorVersion) {
    return Status::InvalidArgument(
        "flat oracle: unsupported minor version (file written by a newer "
        "tso)");
  }
  if (h.file_size != buffer.size()) {
    return Status::OutOfRange("flat oracle: truncated (file size mismatch)");
  }
  const uint32_t expected_sections =
      h.minor_version >= 1 ? kFlatSectionCountMinor1 : kFlatSectionCount;
  if (h.section_count != expected_sections) {
    return Status::InvalidArgument("flat oracle: wrong section count");
  }
  std::string_view table_bytes;
  TSO_RETURN_IF_ERROR(reader.ViewBytes(
      sizeof(FlatHeader), h.section_count * sizeof(FlatSectionEntry),
      &table_bytes));
  if (Crc32(table_bytes.data(), table_bytes.size()) != h.section_table_crc) {
    return Status::InvalidArgument(
        "flat oracle: section table checksum mismatch");
  }
  info.sections.resize(h.section_count);
  std::memcpy(info.sections.data(), table_bytes.data(), table_bytes.size());

  uint64_t prev_end =
      sizeof(FlatHeader) + h.section_count * sizeof(FlatSectionEntry);
  for (uint32_t i = 0; i < h.section_count; ++i) {
    const FlatSectionEntry& e = info.sections[i];
    if (e.id != kSectionOrder[i]) {
      return Status::InvalidArgument("flat oracle: unexpected section order");
    }
    if (e.offset % kFlatSectionAlign != 0) {
      return SectionError(e.id, "misaligned offset");
    }
    if (e.offset < prev_end) {
      return SectionError(e.id, "overlaps the previous section");
    }
    if (e.offset > buffer.size() || buffer.size() - e.offset < e.size) {
      return SectionError(e.id, "extends past the end of the file");
    }
    prev_end = e.offset + e.size;
  }
  return info;
}

StatusOr<OracleView> OracleView::FromBuffer(std::string_view buffer,
                                            const Options& options) {
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(buffer);
  if (!info.ok()) return info.status();
  FlatReader reader(buffer);
  if (options.verify_checksums) {
    TSO_RETURN_IF_ERROR(VerifySectionChecksums(reader, *info));
  }

  const FlatSectionEntry& meta_entry = Section(*info, kFlatMeta);
  if (meta_entry.size != sizeof(FlatMeta) || meta_entry.count != 1) {
    return SectionError(kFlatMeta, "wrong size");
  }
  FlatMeta meta;
  TSO_RETURN_IF_ERROR(reader.ReadPod(meta_entry.offset, &meta));

  OracleView view;
  view.buffer_ = buffer;
  view.epsilon_ = meta.epsilon;
  std::span<const CompressedTreeNode> nodes;
  std::span<const uint32_t> leaf_of_poi;
  std::span<const NodePair> pairs;
  std::span<const uint64_t> bucket_mul;
  std::span<const uint32_t> bucket_offset;
  std::span<const uint64_t> slot_key;
  std::span<const uint64_t> slot_value;
  std::span<const uint8_t> slot_used;
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatPois, &view.pois_));
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatTreeNodes, &nodes));
  TSO_RETURN_IF_ERROR(
      ViewSection(reader, *info, kFlatLeafOfPoi, &leaf_of_poi));
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatPairs, &pairs));
  TSO_RETURN_IF_ERROR(
      ViewSection(reader, *info, kFlatHashBucketMul, &bucket_mul));
  TSO_RETURN_IF_ERROR(
      ViewSection(reader, *info, kFlatHashBucketOffset, &bucket_offset));
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatHashSlotKey, &slot_key));
  TSO_RETURN_IF_ERROR(
      ViewSection(reader, *info, kFlatHashSlotValue, &slot_value));
  TSO_RETURN_IF_ERROR(
      ViewSection(reader, *info, kFlatHashSlotUsed, &slot_used));

  // Cross-check the table's element counts against the meta scalars.
  if (view.pois_.size() != meta.num_pois ||
      leaf_of_poi.size() != meta.num_pois ||
      nodes.size() != meta.num_tree_nodes ||
      pairs.size() != meta.num_pairs ||
      bucket_mul.size() != meta.hash_num_buckets ||
      bucket_offset.size() !=
          static_cast<size_t>(meta.hash_num_buckets) + 1) {
    return Status::InvalidArgument(
        "flat oracle: section counts inconsistent with meta");
  }

  TSO_RETURN_IF_ERROR(ValidateStructure(meta, view.pois_, nodes, leaf_of_poi,
                                        pairs, bucket_offset, slot_key,
                                        slot_value, slot_used));

  view.tree_ = CompressedTreeView(nodes, leaf_of_poi, meta.tree_root,
                                  meta.tree_height);
  if (info->header.minor_version >= 1) {
    std::span<const uint32_t> ancestors;
    TSO_RETURN_IF_ERROR(
        ViewSection(reader, *info, kFlatAncestors, &ancestors));
    if (meta.ancestor_stride != FlatAncestorStride(meta.tree_height) ||
        ancestors.size() !=
            meta.num_pois * static_cast<uint64_t>(meta.ancestor_stride)) {
      return Status::InvalidArgument(
          "flat oracle: ancestor table shape inconsistent with meta");
    }
    TSO_RETURN_IF_ERROR(
        ValidateAncestorRows(view.tree_, ancestors, meta.ancestor_stride));
    view.tree_.SetAncestorTable(ancestors, meta.ancestor_stride);
  } else if (meta.ancestor_stride != 0) {
    return Status::InvalidArgument(
        "flat oracle: ancestor stride set in a minor-0 file");
  }
  view.pairs_ = NodePairSetView(
      pairs,
      PerfectHashView(meta.hash_mul1, meta.hash_num_buckets,
                      meta.hash_num_keys, bucket_mul, bucket_offset, slot_key,
                      slot_value, slot_used));
  return view;
}

StatusOr<OracleView> OracleView::FromBytes(std::string bytes,
                                           const Options& options) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  StatusOr<OracleView> view = FromBuffer(*owned, options);
  if (!view.ok()) return view.status();
  view->owner_ = std::move(owned);
  return view;
}

StatusOr<OracleView> OracleView::Open(const std::string& path,
                                      const Options& options) {
  StatusOr<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<const MmapFile>(std::move(*file));
  StatusOr<OracleView> view = FromBuffer(shared->view(), options);
  if (!view.ok()) {
    // FromBuffer only sees bytes; re-attach the path so a failed open (or a
    // failed reload loop built on it) is diagnosable from the message alone.
    return Status::Annotate(view.status(), path);
  }
  view->owner_ = std::move(shared);
  return view;
}

}  // namespace tso
