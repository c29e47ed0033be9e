#include "oracle/pack_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "base/atomic_file.h"
#include "base/crc32.h"
#include "base/failpoint.h"
#include "base/serde.h"
#include "oracle/oracle_serde.h"

namespace tso {
namespace {

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

Status PackSectionError(uint32_t id, const char* what) {
  return Status::InvalidArgument(std::string("oracle pack: section ") +
                                 PackSectionName(id) + ": " + what);
}

/// Assigns every POI to a shard under `options`. Deterministic for a given
/// oracle: the geo policy sorts by position with the POI id as the final
/// tie-break, so co-located POIs still order stably.
std::vector<uint32_t> AssignShards(const OracleView& oracle,
                                   const PackBuildOptions& options) {
  const size_t n = oracle.num_pois();
  const uint64_t shards = options.num_shards;
  std::vector<uint32_t> shard_of_poi(n);
  if (options.policy == PackPolicy::kGeo) {
    // Sort POIs spatially, then cut the sorted order into equal runs: each
    // shard covers a contiguous slab of the terrain along the sort axis.
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const std::span<const SurfacePoint> pois = oracle.pois();
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const Vec3& pa = pois[a].pos;
      const Vec3& pb = pois[b].pos;
      if (pa.x != pb.x) return pa.x < pb.x;
      if (pa.y != pb.y) return pa.y < pb.y;
      if (pa.z != pb.z) return pa.z < pb.z;
      return a < b;
    });
    for (size_t rank = 0; rank < n; ++rank) {
      shard_of_poi[order[rank]] = static_cast<uint32_t>(rank * shards / n);
    }
  } else {
    for (size_t p = 0; p < n; ++p) {
      shard_of_poi[p] = static_cast<uint32_t>(p * shards / n);
    }
  }
  return shard_of_poi;
}

}  // namespace

const char* PackSectionName(uint32_t id) {
  switch (id) {
    case kPackMeta:
      return "pack-meta";
    case kPackShardOfPoi:
      return "shard-of-poi";
    case kPackShardOfNode:
      return "shard-of-node";
    default:
      return id >= kPackShardBase ? "shard" : "unknown";
  }
}

const char* PackPolicyName(PackPolicy policy) {
  switch (policy) {
    case PackPolicy::kPoiRange:
      return "poi-range";
    case PackPolicy::kGeo:
      return "geo";
  }
  return "unknown";
}

StatusOr<std::string> SerializeOraclePack(const OracleView& oracle,
                                          const PackBuildOptions& options) {
  const uint32_t num_shards = options.num_shards;
  if (num_shards == 0 || num_shards > kPackMaxShards) {
    return Status::InvalidArgument("pack shard count out of range");
  }
  if (num_shards > oracle.num_pois()) {
    return Status::InvalidArgument(
        "pack shard count exceeds the POI count (empty shards would carry "
        "no POIs; lower --shards)");
  }
  if (options.policy != PackPolicy::kPoiRange &&
      options.policy != PackPolicy::kGeo) {
    return Status::InvalidArgument("unknown pack policy");
  }

  const CompressedTreeView& tree = oracle.tree();
  const std::vector<uint32_t> shard_of_poi = AssignShards(oracle, options);
  std::vector<uint32_t> shard_of_node(tree.num_nodes());
  for (uint32_t nd = 0; nd < tree.num_nodes(); ++nd) {
    shard_of_node[nd] = shard_of_poi[tree.node(nd).center];
  }

  // Place each record in the shards of both endpoints (once when they
  // share one), so a probe can be answered by either (PairSource::Lookup).
  // Each shard's pilot hash depends only on its pair set, so the shard
  // bytes are deterministic.
  std::vector<std::vector<NodePair>> shard_pairs(num_shards);
  uint64_t num_pairs = 0;
  for (const NodePair& pair : oracle.pair_set().pairs()) {
    if (pair.a >= tree.num_nodes() || pair.b >= tree.num_nodes()) {
      return Status::InvalidArgument("flat oracle: pair node id range");
    }
    const uint32_t sa = shard_of_node[pair.a];
    const uint32_t sb = shard_of_node[pair.b];
    shard_pairs[sa].push_back(pair);
    if (sb != sa) shard_pairs[sb].push_back(pair);
  }

  std::vector<std::string> shard_blobs;
  shard_blobs.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    TSO_FAILPOINT("pack.write.section");
    num_pairs += shard_pairs[s].size();
    StatusOr<NodePairSet> set = NodePairSet::FromPairs(
        shard_pairs[s], static_cast<uint32_t>(tree.num_nodes()));
    if (!set.ok()) return set.status();
    shard_blobs.push_back(SerializeSeOracleFlat(
        oracle.epsilon(), oracle.pois(), tree, set->view()));
  }

  PackMeta meta{};
  meta.epsilon = oracle.epsilon();
  meta.num_pois = oracle.num_pois();
  meta.num_tree_nodes = tree.num_nodes();
  meta.num_pairs_total = num_pairs;
  meta.num_shards = num_shards;
  meta.policy = static_cast<uint32_t>(options.policy);

  // Lay out: header, section table, then 64-byte-aligned sections (fixed
  // sections first, then one shard blob per shard).
  struct SectionSrc {
    uint32_t id;
    const void* data;
    uint64_t size;
    uint64_t count;
  };
  std::vector<SectionSrc> sections;
  sections.push_back({kPackMeta, &meta, sizeof(meta), 1});
  sections.push_back({kPackShardOfPoi, shard_of_poi.data(),
                      shard_of_poi.size() * sizeof(uint32_t),
                      shard_of_poi.size()});
  sections.push_back({kPackShardOfNode, shard_of_node.data(),
                      shard_of_node.size() * sizeof(uint32_t),
                      shard_of_node.size()});
  for (uint32_t s = 0; s < num_shards; ++s) {
    sections.push_back({kPackShardBase + s, shard_blobs[s].data(),
                        shard_blobs[s].size(), 1});
  }

  const uint32_t section_count = static_cast<uint32_t>(sections.size());
  std::vector<FlatSectionEntry> table(section_count);
  uint64_t cursor =
      sizeof(FlatHeader) + section_count * sizeof(FlatSectionEntry);
  for (uint32_t i = 0; i < section_count; ++i) {
    const SectionSrc& s = sections[i];
    table[i].id = s.id;
    table[i].offset = AlignUp(cursor, kFlatSectionAlign);
    table[i].size = s.size;
    table[i].count = s.count;
    table[i].crc32 = Crc32(s.data, s.size);
    cursor = table[i].offset + s.size;
  }
  const uint64_t file_size = cursor;

  FlatHeader header{};
  std::memcpy(header.magic, kPackMagic, sizeof(kPackMagic));
  header.endian_tag = kFlatEndianTag;
  header.version = kPackFormatVersion;
  header.file_size = file_size;
  header.section_count = section_count;
  header.section_table_crc =
      Crc32(table.data(), table.size() * sizeof(FlatSectionEntry));

  std::string out;
  out.reserve(file_size);
  out.append(reinterpret_cast<const char*>(&header), sizeof(header));
  out.append(reinterpret_cast<const char*>(table.data()),
             table.size() * sizeof(FlatSectionEntry));
  for (uint32_t i = 0; i < section_count; ++i) {
    out.append(table[i].offset - out.size(), '\0');  // alignment padding
    out.append(static_cast<const char*>(sections[i].data), sections[i].size);
  }
  return out;
}

Status SaveOraclePack(const OracleView& oracle,
                      const PackBuildOptions& options,
                      const std::string& path) {
  StatusOr<std::string> blob = SerializeOraclePack(oracle, options);
  if (!blob.ok()) return blob.status();
  // Crash-safe publication: a killed pack build never leaves a torn pack
  // visible at `path` (see base/atomic_file.h).
  return WriteFileAtomic(path, *blob);
}

StatusOr<PackFileInfo> ReadPackFileInfo(std::string_view buffer) {
  FlatReader reader(buffer);
  PackFileInfo info;
  TSO_RETURN_IF_ERROR(reader.ReadPod(0, &info.header));
  const FlatHeader& h = info.header;
  if (!LooksLikeOraclePack(buffer)) {
    return Status::InvalidArgument("oracle pack: bad magic");
  }
  if (h.endian_tag != kFlatEndianTag) {
    return Status::InvalidArgument(
        "oracle pack: endianness mismatch (file written on a foreign "
        "architecture)");
  }
  if (h.version != kPackFormatVersion) {
    return Status::InvalidArgument("oracle pack: unsupported format version");
  }
  if (h.file_size != buffer.size()) {
    return Status::OutOfRange("oracle pack: truncated (file size mismatch)");
  }
  if (h.section_count < kPackFixedSectionCount + 1 ||
      h.section_count > kPackFixedSectionCount + kPackMaxShards) {
    return Status::InvalidArgument("oracle pack: wrong section count");
  }
  std::string_view table_bytes;
  TSO_RETURN_IF_ERROR(reader.ViewBytes(
      sizeof(FlatHeader), h.section_count * sizeof(FlatSectionEntry),
      &table_bytes));
  if (Crc32(table_bytes.data(), table_bytes.size()) != h.section_table_crc) {
    return Status::InvalidArgument(
        "oracle pack: section table checksum mismatch");
  }
  info.sections.resize(h.section_count);
  std::memcpy(info.sections.data(), table_bytes.data(), table_bytes.size());

  uint64_t prev_end =
      sizeof(FlatHeader) + h.section_count * sizeof(FlatSectionEntry);
  for (uint32_t i = 0; i < h.section_count; ++i) {
    const FlatSectionEntry& e = info.sections[i];
    const uint32_t expect = i < kPackFixedSectionCount
                                ? kPackMeta + i
                                : kPackShardBase + (i - kPackFixedSectionCount);
    if (e.id != expect) {
      return Status::InvalidArgument("oracle pack: unexpected section order");
    }
    if (e.offset % kFlatSectionAlign != 0) {
      return PackSectionError(e.id, "misaligned offset");
    }
    if (e.offset < prev_end) {
      return PackSectionError(e.id, "overlaps the previous section");
    }
    if (e.offset > buffer.size() || buffer.size() - e.offset < e.size) {
      return PackSectionError(e.id, "extends past the end of the file");
    }
    prev_end = e.offset + e.size;
  }

  const FlatSectionEntry& meta_entry = info.sections[0];
  if (meta_entry.size != sizeof(PackMeta) || meta_entry.count != 1) {
    return PackSectionError(kPackMeta, "wrong size");
  }
  TSO_RETURN_IF_ERROR(reader.ReadPod(meta_entry.offset, &info.meta));
  if (info.meta.num_shards !=
      info.header.section_count - kPackFixedSectionCount) {
    return Status::InvalidArgument(
        "oracle pack: meta shard count disagrees with the section table");
  }
  if (info.meta.policy != static_cast<uint32_t>(PackPolicy::kPoiRange) &&
      info.meta.policy != static_cast<uint32_t>(PackPolicy::kGeo)) {
    return Status::InvalidArgument("oracle pack: unknown policy");
  }
  return info;
}

StatusOr<PackView> PackView::FromBuffer(std::string_view buffer,
                                        const Options& options) {
  StatusOr<PackFileInfo> info = ReadPackFileInfo(buffer);
  if (!info.ok()) return info.status();
  FlatReader reader(buffer);
  const uint32_t num_shards = info->meta.num_shards;
  // 1 = the shard has passed every check so far. A degraded open flips a
  // shard to 0 instead of rejecting the pack; the frame and routing
  // sections always stay load-bearing (a bad routing table would misroute
  // every probe, not just one shard's).
  std::vector<uint8_t> shard_ok(num_shards, 1);
  if (options.verify_checksums) {
    TSO_FAILPOINT("pack.verify.crc");
    for (uint32_t i = 0; i < info->sections.size(); ++i) {
      const FlatSectionEntry& e = info->sections[i];
      std::string_view bytes;
      TSO_RETURN_IF_ERROR(reader.ViewBytes(e.offset, e.size, &bytes));
      if (Crc32(bytes.data(), bytes.size()) == e.crc32) continue;
      if (options.allow_degraded && i >= kPackFixedSectionCount) {
        shard_ok[i - kPackFixedSectionCount] = 0;
        continue;
      }
      return PackSectionError(e.id, "checksum mismatch (corrupt file)");
    }
  }

  PackView view;
  view.buffer_ = buffer;
  view.meta_ = info->meta;

  const FlatSectionEntry& poi_entry = info->sections[1];
  const FlatSectionEntry& node_entry = info->sections[2];
  if (poi_entry.size != poi_entry.count * sizeof(uint32_t) ||
      poi_entry.count != info->meta.num_pois) {
    return PackSectionError(kPackShardOfPoi, "size inconsistent with meta");
  }
  if (node_entry.size != node_entry.count * sizeof(uint32_t) ||
      node_entry.count != info->meta.num_tree_nodes) {
    return PackSectionError(kPackShardOfNode, "size inconsistent with meta");
  }
  TSO_RETURN_IF_ERROR(reader.ViewArray<uint32_t>(
      poi_entry.offset, poi_entry.count, &view.shard_of_poi_));
  TSO_RETURN_IF_ERROR(reader.ViewArray<uint32_t>(
      node_entry.offset, node_entry.count, &view.shard_of_node_));

  // Open every shard as a standalone flat oracle (full structural
  // validation per shard), then cross-check it against the pack meta so a
  // pack spliced from mismatched oracles is rejected. Under allow_degraded
  // a failing shard is quarantined (dead slot + empty pair view — its
  // probes go to the pair's other endpoint shard, or surface kUnavailable
  // through PairSource::Lookup) and the intact shards keep serving.
  OracleView::Options shard_options;
  shard_options.verify_checksums = options.verify_checksums;
  view.shards_.reserve(num_shards);
  view.pair_shards_.reserve(num_shards);
  uint64_t pairs_total = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const FlatSectionEntry& e = info->sections[kPackFixedSectionCount + s];
    Status bad = Status::Ok();
    if (shard_ok[s] != 0) {
      StatusOr<OracleView> shard = OracleView::FromBuffer(
          buffer.substr(e.offset, e.size), shard_options);
      if (!shard.ok()) {
        bad = Status::InvalidArgument("oracle pack: shard " +
                                      std::to_string(s) + ": " +
                                      shard.status().message());
      } else if (shard->epsilon() != info->meta.epsilon ||
                 shard->num_pois() != info->meta.num_pois ||
                 shard->tree().num_nodes() != info->meta.num_tree_nodes) {
        bad = Status::InvalidArgument(
            "oracle pack: shard " + std::to_string(s) +
            " disagrees with the pack meta (mismatched oracles?)");
      } else {
        pairs_total += shard->stored_num_pairs();
        view.pair_shards_.push_back(shard->pair_set());
        view.shards_.push_back(std::move(*shard));
        continue;
      }
    }
    if (!options.allow_degraded && !bad.ok()) return bad;
    shard_ok[s] = 0;
    view.shards_.emplace_back(std::nullopt);
    view.pair_shards_.emplace_back();  // empty: probes miss safely
  }
  view.num_available_ = static_cast<uint32_t>(
      std::count(shard_ok.begin(), shard_ok.end(), uint8_t{1}));
  if (view.num_available_ == 0) {
    return Status::InvalidArgument(
        "oracle pack: every shard failed validation");
  }
  if (view.num_available_ == num_shards) {
    // Healthy pack: the pair-count cross-check applies, and the empty
    // bitmap keeps PairSource::Lookup on its zero-cost fast path.
    if (pairs_total != info->meta.num_pairs_total) {
      return Status::InvalidArgument(
          "oracle pack: shard pair counts disagree with the pack meta");
    }
  } else {
    view.shard_ok_ = std::move(shard_ok);
  }

  // Every shard replicates the POI and tree sections; any live shard's
  // replica serves routing and tree walks for the whole pack.
  for (const std::optional<OracleView>& shard : view.shards_) {
    if (!shard.has_value()) continue;
    view.pois_ = shard->pois();
    view.tree_ = shard->tree();
    break;
  }

  // Routing-table validation: every entry names a real shard, and the node
  // table is consistent with the POI table through the tree (the invariant
  // the writer guarantees and PairSource::Lookup relies on for exactness).
  for (uint32_t sp : view.shard_of_poi_) {
    if (sp >= info->meta.num_shards) {
      return PackSectionError(kPackShardOfPoi, "entry out of range");
    }
  }
  for (uint32_t nd = 0; nd < view.tree_.num_nodes(); ++nd) {
    const uint32_t sn = view.shard_of_node_[nd];
    if (sn >= info->meta.num_shards) {
      return PackSectionError(kPackShardOfNode, "entry out of range");
    }
    if (sn != view.shard_of_poi_[view.tree_.node(nd).center]) {
      return PackSectionError(
          kPackShardOfNode, "inconsistent with shard-of-poi (pair routing "
                            "would be wrong)");
    }
  }
  return view;
}

StatusOr<PackView> PackView::Open(const std::string& path,
                                  const Options& options) {
  StatusOr<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<MmapFile>(std::move(*file));
  StatusOr<PackView> view = FromBuffer(shared->view(), options);
  if (!view.ok()) {
    // FromBuffer only sees bytes; re-attach the path for diagnosability.
    return Status::Annotate(view.status(), path);
  }
  view->file_ = std::move(shared);
  return view;
}

}  // namespace tso
