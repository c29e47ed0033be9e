#include "oracle/oracle_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "base/crc32.h"
#include "base/failpoint.h"
#include "base/serde.h"
#include "oracle/oracle_serde.h"

namespace tso {
namespace {

/// The section order of a v1 file (see flat_format.h). A minor-0 file
/// carries exactly the first kFlatSectionCount entries; minor 1 appends
/// kFlatAncestors.
constexpr FlatSectionId kSectionOrderV1[kFlatSectionCountMinor1] = {
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

/// Structural validation of the tree sections: after this passes, every
/// index a tree walk can follow stays in bounds, and every parent walk
/// terminates. O(n) with n = POIs, the small part of the file. The pair
/// records need no scan: a probe reads the record at FastRange(h, m) < m
/// and compares its (a, b), so corrupt records can only make probes miss
/// or return a wrong stored double, never read out of bounds. That keeps
/// Open at O(header + n) rather than O(file size); enable
/// Options::verify_checksums to detect (not just survive) corruption.
Status ValidateTree(const FlatMeta& meta,
                    std::span<const CompressedTreeNode> nodes,
                    std::span<const uint32_t> leaf_of_poi) {
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
  return Status::Ok();
}

/// The precomputed ancestor table (v1.1 and v2) is read unguarded on
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
    case kFlatPilots:
      return "pilots";
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
  // v1 (minors 0 and 1) is read for conversion; v2 up to this build's minor.
  const uint32_t max_minor = h.version == 1 ? 1 : kFlatFormatMinorVersion;
  if (h.version != 1 && h.version != kFlatFormatVersion) {
    return Status::InvalidArgument("flat oracle: unsupported format version");
  }
  if (h.minor_version > max_minor) {
    return Status::InvalidArgument(
        "flat oracle: unsupported minor version (file written by a newer "
        "tso)");
  }
  if (h.file_size != buffer.size()) {
    return Status::OutOfRange("flat oracle: truncated (file size mismatch)");
  }
  const std::span<const FlatSectionId> order =
      h.version == 1
          ? std::span<const FlatSectionId>(kSectionOrderV1).first(
                h.minor_version >= 1 ? kFlatSectionCountMinor1
                                     : kFlatSectionCount)
          : std::span<const FlatSectionId>(kFlatSectionOrderV2);
  if (h.section_count != order.size()) {
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
    if (e.id != order[i]) {
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
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatPois, &view.pois_));
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatTreeNodes, &nodes));
  TSO_RETURN_IF_ERROR(
      ViewSection(reader, *info, kFlatLeafOfPoi, &leaf_of_poi));
  if (view.pois_.size() != meta.num_pois ||
      leaf_of_poi.size() != meta.num_pois ||
      nodes.size() != meta.num_tree_nodes) {
    return Status::InvalidArgument(
        "flat oracle: section counts inconsistent with meta");
  }
  TSO_RETURN_IF_ERROR(ValidateTree(meta, nodes, leaf_of_poi));
  view.tree_ = CompressedTreeView(nodes, leaf_of_poi, meta.tree_root,
                                  meta.tree_height);

  const uint32_t version = info->header.version;
  if (version >= 2 || info->header.minor_version >= 1) {
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

  if (version == 1) {
    // A v1 file keeps its pairs sorted by (a, b) beside FKS tables, which
    // are not read: re-index the pairs with the pilot hash and serve the
    // re-serialized v2 bytes, O(pairs) once per open.
    std::span<const NodePair> pairs;
    TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatPairs, &pairs));
    if (pairs.size() != meta.num_pairs) {
      return Status::InvalidArgument(
          "flat oracle: section counts inconsistent with meta");
    }
    StatusOr<NodePairSet> set = NodePairSet::FromPairs(pairs);
    if (!set.ok()) {
      return Status::InvalidArgument("flat oracle v1: node-pairs: " +
                                     set.status().message());
    }
    StatusOr<OracleView> converted = FromBytes(SerializeSeOracleFlat(
        meta.epsilon, view.pois_, view.tree_, set->view()));
    if (!converted.ok()) return converted.status();
    converted->converted_from_v1_ = true;
    return converted;
  }

  // The pilot hash: Slot() is < records.size() for every key once the
  // shape below holds, so probes need no per-record guard.
  std::span<const uint16_t> pilots;
  std::span<const NodePair> records;
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatPilots, &pilots));
  TSO_RETURN_IF_ERROR(ViewSection(reader, *info, kFlatPairs, &records));
  if (pilots.empty() || pilots.size() != meta.hash_num_buckets ||
      records.empty() || records.size() != meta.hash_num_slots ||
      records.size() < meta.num_pairs) {
    return Status::InvalidArgument(
        "flat oracle: pilot hash shape inconsistent with meta");
  }
  view.pairs_ = NodePairSetView(
      records, PerfectHashView(meta.hash_seed, records.size(), pilots),
      meta.num_pairs);
  return view;
}

StatusOr<OracleView> OracleView::FromBytes(std::string bytes,
                                           const Options& options) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  StatusOr<OracleView> view = FromBuffer(*owned, options);
  if (!view.ok()) return view.status();
  // A converted v1 view already owns its v2 bytes.
  if (!view->converted_from_v1_) view->owner_ = std::move(owned);
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
  if (!view->converted_from_v1_) view->owner_ = std::move(shared);
  return view;
}

}  // namespace tso
