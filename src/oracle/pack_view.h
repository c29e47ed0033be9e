#ifndef TSO_ORACLE_PACK_VIEW_H_
#define TSO_ORACLE_PACK_VIEW_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/mmap_file.h"
#include "oracle/distance_query.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_format.h"

namespace tso {

/// Pack writer knobs: how many shards and how POIs map to them. Both
/// policies produce bit-identical answers (routing is exact — see
/// pack_format.h); they differ in which pairs co-reside, i.e. in locality:
/// kPoiRange shards by POI id, kGeo by surface position, which keeps
/// geographically clustered workloads inside fewer shards and lets a
/// serving deployment reload the shard covering a region independently.
struct PackBuildOptions {
  uint32_t num_shards = 2;
  PackPolicy policy = PackPolicy::kPoiRange;
};

/// Serializes `oracle` (a built SeOracle or an opened flat file) into an
/// oracle pack (pack_format.h): the node-pair set is split into `num_shards`
/// standalone TSOFLAT shards behind one section table, each record going to
/// the shards of both its endpoints.
/// Deterministic: the same oracle and options always produce byte-identical
/// output. A pair naming a node outside the tree is InvalidArgument (an
/// opened view does not scan pair ids).
StatusOr<std::string> SerializeOraclePack(const OracleView& oracle,
                                          const PackBuildOptions& options);

Status SaveOraclePack(const OracleView& oracle,
                      const PackBuildOptions& options,
                      const std::string& path);

/// Parsed header + section table of a pack, exposed for `tso inspect`.
struct PackFileInfo {
  FlatHeader header;  // pack magic/version, same struct shape
  PackMeta meta;
  std::vector<FlatSectionEntry> sections;  // fixed sections, then shards
};

/// Parses and structurally validates the pack header + section table + meta
/// (no shard content validation, no checksum pass).
StatusOr<PackFileInfo> ReadPackFileInfo(std::string_view buffer);

/// The multi-shard query-time representation: a zero-copy facade over an
/// oracle pack, typically memory-mapped. Opening validates the pack frame,
/// opens every shard through OracleView::FromBuffer (full per-shard
/// structural validation), cross-checks the shards against the pack meta,
/// and validates the routing tables — after which queries are memory-safe
/// on arbitrary input bytes, and bit-identical to the monolithic oracle the
/// pack was built from.
///
/// Thread safety: immutable after open; every query is const, re-entrant,
/// and safe to call concurrently. Copying shares the mapping.
class PackView {
 public:
  struct Options {
    /// Verify every pack-level section CRC32 (routing tables and whole
    /// shard blobs) at open. Same trade-off as OracleView::Options: off by
    /// default, structural validation always runs.
    bool verify_checksums = false;
    /// Degraded open: a shard that fails validation (or its pack-level
    /// checksum, when verify_checksums is set) is marked unavailable
    /// instead of failing the whole open — the intact shards keep serving,
    /// with the healthy pack's bits, and only queries whose probes need a
    /// pair both of whose endpoint shards are dead return kUnavailable (see
    /// PairSource::Lookup and docs/robustness.md). The open still fails
    /// if the pack frame, the routing tables, or every shard is bad.
    bool allow_degraded = false;
  };

  /// Opens a pack over caller-owned bytes (`buffer` must outlive the view).
  static StatusOr<PackView> FromBuffer(std::string_view buffer,
                                       const Options& options);
  static StatusOr<PackView> FromBuffer(std::string_view buffer) {
    return FromBuffer(buffer, Options());
  }

  /// Memory-maps `path` and opens it; the mapping is owned by the view
  /// (shared across copies) and released with the last copy.
  static StatusOr<PackView> Open(const std::string& path,
                                 const Options& options);
  static StatusOr<PackView> Open(const std::string& path) {
    return Open(path, Options());
  }

  /// ε-approximate distance between POIs s and t: the same O(h) query as
  /// OracleView::Distance, with each pair probe routed to a live shard that
  /// holds the pair.
  StatusOr<double> Distance(uint32_t s, uint32_t t) const {
    static thread_local QueryScratch scratch;
    return Distance(s, t, scratch);
  }
  StatusOr<double> Distance(uint32_t s, uint32_t t,
                            QueryScratch& scratch) const {
    if (s >= pois_.size() || t >= pois_.size()) {
      return Status::InvalidArgument("POI index out of range");
    }
    return OracleDistance(tree_, pair_source(), s, t, scratch);
  }

  double epsilon() const { return meta_.epsilon; }
  size_t num_pois() const { return pois_.size(); }
  int height() const { return tree_.height(); }
  std::span<const SurfacePoint> pois() const { return pois_; }
  const CompressedTreeView& tree() const { return tree_; }

  uint32_t num_shards() const { return meta_.num_shards; }
  PackPolicy policy() const { return static_cast<PackPolicy>(meta_.policy); }
  const PackMeta& meta() const { return meta_; }

  /// False for a shard marked dead by a degraded open (always true for a
  /// strict open, which rejects the pack instead).
  bool shard_available(uint32_t i) const {
    return shard_ok_.empty() || shard_ok_[i] != 0;
  }
  /// Shards that opened successfully (== num_shards() for a strict open).
  uint32_t num_available() const { return num_available_; }

  /// Shard i as a standalone oracle view (its pair subset only — distances
  /// through it are partial; route through the PackView for full answers).
  /// Requires shard_available(i).
  const OracleView& shard(uint32_t i) const { return *shards_[i]; }
  /// The per-shard pair sets, indexed by shard id.
  std::span<const NodePairSetView> pair_shards() const { return pair_shards_; }
  std::span<const uint32_t> shard_of_poi() const { return shard_of_poi_; }
  std::span<const uint32_t> shard_of_node() const { return shard_of_node_; }

  /// The sharded probe source (query/engine.h consumes this through
  /// MakeSource). Borrows from this view: the PackView must stay alive and
  /// in place while the source (or a DistanceSource made from it) is used.
  /// After a degraded open the source carries the availability bitmap, so
  /// a probe whose pair lives only in dead shards surfaces kUnavailable
  /// instead of a miss.
  PairSource pair_source() const {
    return PairSource::Sharded(pair_shards_, shard_of_node_, shard_ok_);
  }

  /// Size of the backing buffer.
  size_t SizeBytes() const { return buffer_.size(); }
  std::string_view buffer() const { return buffer_; }

 private:
  PackView() = default;

  std::string_view buffer_;
  std::shared_ptr<MmapFile> file_;  // null when FromBuffer supplied the bytes
  PackMeta meta_{};
  std::span<const uint32_t> shard_of_poi_;
  std::span<const uint32_t> shard_of_node_;
  std::vector<std::optional<OracleView>> shards_;  // nullopt: dead shard
  std::vector<NodePairSetView> pair_shards_;  // per shard; empty if dead
  std::vector<uint8_t> shard_ok_;  // empty unless a degraded open; 1 = live
  uint32_t num_available_ = 0;
  std::span<const SurfacePoint> pois_;  // first live shard's replica
  CompressedTreeView tree_;             // first live shard's replica
};

}  // namespace tso

#endif  // TSO_ORACLE_PACK_VIEW_H_
