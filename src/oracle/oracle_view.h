#ifndef TSO_ORACLE_ORACLE_VIEW_H_
#define TSO_ORACLE_ORACLE_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/mmap_file.h"
#include "mesh/terrain_mesh.h"
#include "oracle/distance_query.h"
#include "oracle/flat_format.h"

namespace tso {

/// The immutable query-time representation of the SE oracle: a zero-copy
/// facade over a flat-format buffer (oracle/flat_format.h), typically a
/// memory-mapped oracle file. Opening is O(validation) — no per-element
/// copies, no heap-materialized vectors; every query reads the mapped
/// sections in place through the shared view forms (CompressedTreeView,
/// NodePairSetView). Answers are bit-identical to the owning SeOracle the
/// file was serialized from, because both run the same lookup code over the
/// same bytes.
///
/// Thread safety: like SeOracle, an OracleView is immutable and every query
/// is const, re-entrant, and safe to call concurrently. Copying a view is
/// cheap and shares the underlying mapping; read-only mapped pages are
/// additionally shared between *processes* serving the same file.
class OracleView {
 public:
  struct Options {
    /// Verify the per-section CRC32 checksums at open. One streaming pass
    /// over the file; catches silent corruption (bit flips, torn writes)
    /// that structural validation cannot. Off by default to keep the open
    /// path O(header + validation scan) — structural validation (bounds,
    /// links, hash-table shape) ALWAYS runs, so a view that opened ok is
    /// memory-safe to query even on adversarial input; enable checksums
    /// when ingesting files from untrusted storage (`tso inspect` always
    /// verifies them).
    bool verify_checksums = false;
  };

  /// Opens a flat oracle over caller-owned bytes (`buffer` must outlive the
  /// view and every result obtained through it).
  static StatusOr<OracleView> FromBuffer(std::string_view buffer,
                                         const Options& options);
  static StatusOr<OracleView> FromBuffer(std::string_view buffer) {
    return FromBuffer(buffer, Options());
  }

  /// Memory-maps `path` and opens it; the mapping is owned by the view
  /// (shared across copies) and released with the last copy.
  static StatusOr<OracleView> Open(const std::string& path,
                                   const Options& options);
  static StatusOr<OracleView> Open(const std::string& path) {
    return Open(path, Options());
  }

  /// ε-approximate distance between POIs s and t — the same O(h) query as
  /// SeOracle::Distance, served from the mapped buffer.
  StatusOr<double> Distance(uint32_t s, uint32_t t) const {
    static thread_local QueryScratch scratch;
    return Distance(s, t, scratch);
  }
  StatusOr<double> Distance(uint32_t s, uint32_t t,
                            QueryScratch& scratch) const {
    TSO_RETURN_IF_ERROR(CheckQueryIds(s, t));
    return OracleDistance(tree_, pairs_, s, t, scratch);
  }

  /// The O(h²) naive query (SE-Naive baseline).
  StatusOr<double> DistanceNaive(uint32_t s, uint32_t t) const {
    static thread_local QueryScratch scratch;
    return DistanceNaive(s, t, scratch);
  }
  StatusOr<double> DistanceNaive(uint32_t s, uint32_t t,
                                 QueryScratch& scratch) const {
    TSO_RETURN_IF_ERROR(CheckQueryIds(s, t));
    return OracleDistanceNaive(tree_, pairs_, s, t, scratch);
  }

  double epsilon() const { return epsilon_; }
  size_t num_pois() const { return pois_.size(); }
  int height() const { return tree_.height(); }
  std::span<const SurfacePoint> pois() const { return pois_; }
  const SurfacePoint& poi(uint32_t p) const { return pois_[p]; }
  const CompressedTreeView& tree() const { return tree_; }
  const NodePairSetView& pair_set() const { return pairs_; }

  /// Size of the backing buffer — for a mapped file, the bytes shared as
  /// read-only pages rather than heap-resident.
  size_t SizeBytes() const { return buffer_.size(); }

  /// The raw flat-format bytes backing this view.
  std::string_view buffer() const { return buffer_; }

 private:
  OracleView() = default;

  Status CheckQueryIds(uint32_t s, uint32_t t) const {
    if (s >= pois_.size() || t >= pois_.size()) {
      return Status::InvalidArgument("POI index out of range");
    }
    return Status::Ok();
  }

  std::string_view buffer_;
  std::shared_ptr<MmapFile> file_;  // null when FromBuffer supplied the bytes
  double epsilon_ = 0.0;
  std::span<const SurfacePoint> pois_;
  CompressedTreeView tree_;
  NodePairSetView pairs_;
};

/// Parsed section table of a flat oracle, exposed for `tso inspect` and the
/// format-stability tests.
struct FlatFileInfo {
  FlatHeader header;
  std::vector<FlatSectionEntry> sections;
};

/// Parses and structurally validates the header + section table only (no
/// section content validation, no checksum pass).
StatusOr<FlatFileInfo> ReadFlatFileInfo(std::string_view buffer);

/// True iff `buffer` starts with the flat-format magic (cheap format sniff
/// for verbs that accept either a flat oracle or a pack).
bool LooksLikeFlatOracle(std::string_view buffer);

}  // namespace tso

#endif  // TSO_ORACLE_ORACLE_VIEW_H_
