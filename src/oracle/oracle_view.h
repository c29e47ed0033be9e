#ifndef TSO_ORACLE_ORACLE_VIEW_H_
#define TSO_ORACLE_ORACLE_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/mmap_file.h"
#include "mesh/terrain_mesh.h"
#include "oracle/distance_query.h"
#include "oracle/flat_format.h"

namespace tso {

/// The immutable query-time representation of the SE oracle: a zero-copy
/// facade over a flat-format buffer (oracle/flat_format.h) — a
/// memory-mapped oracle file (Open), the heap bytes a build produced
/// (FromBytes; SeOracle is exactly such a view), or caller-owned bytes
/// (FromBuffer). Opening is O(validation) — no per-element copies, no
/// heap-materialized vectors; every query reads the sections in place
/// through the shared view forms (CompressedTreeView, NodePairSetView), so a
/// built oracle and the file it is saved to answer bit-identically.
///
/// Thread safety: an OracleView is immutable and every query is const,
/// re-entrant, and safe to call concurrently. Copying a view is cheap and
/// shares the underlying bytes; read-only mapped pages are additionally
/// shared between *processes* serving the same file.
class OracleView {
 public:
  struct Options {
    /// Verify the per-section CRC32 checksums at open. One streaming pass
    /// over the file; catches silent corruption (bit flips, torn writes)
    /// that structural validation cannot. Off by default to keep the open
    /// path O(header + validation scan) — structural validation (bounds,
    /// links, pilot-hash shape) ALWAYS runs, so a view that opened ok is
    /// memory-safe to query even on adversarial input; enable checksums
    /// when ingesting files from untrusted storage (`tso inspect` always
    /// verifies them).
    bool verify_checksums = false;
  };

  /// Opens a flat oracle over caller-owned bytes (`buffer` must outlive the
  /// view and every result obtained through it). A v1, v2 or v3 file is
  /// converted to v4 at open (O(pairs log pairs)); the view then owns the
  /// converted bytes and does not reference `buffer` (see converted_from()).
  static StatusOr<OracleView> FromBuffer(std::string_view buffer,
                                         const Options& options);
  static StatusOr<OracleView> FromBuffer(std::string_view buffer) {
    return FromBuffer(buffer, Options());
  }

  /// Opens a flat oracle over `bytes`, which the view takes ownership of
  /// (shared across copies, released with the last copy). Same validation
  /// as FromBuffer.
  static StatusOr<OracleView> FromBytes(std::string bytes,
                                        const Options& options);
  static StatusOr<OracleView> FromBytes(std::string bytes) {
    return FromBytes(std::move(bytes), Options());
  }

  /// Memory-maps `path` and opens it; the mapping is owned by the view
  /// (shared across copies) and released with the last copy.
  static StatusOr<OracleView> Open(const std::string& path,
                                   const Options& options);
  static StatusOr<OracleView> Open(const std::string& path) {
    return Open(path, Options());
  }

  /// ε-approximate distance between POIs s and t — the efficient O(h)
  /// query of §3.4 (same-layer scan + first-higher + first-lower passes).
  /// The scratch-free overload uses a thread_local QueryScratch.
  StatusOr<double> Distance(uint32_t s, uint32_t t) const {
    static thread_local QueryScratch scratch;
    return Distance(s, t, scratch);
  }
  StatusOr<double> Distance(uint32_t s, uint32_t t,
                            QueryScratch& scratch) const {
    TSO_RETURN_IF_ERROR(CheckQueryIds(s, t));
    return OracleDistance(tree_, pairs_, s, t, scratch);
  }

  /// The O(h²) naive query of §3.4 (scans A_s × A_t). Same answers; used
  /// as the SE-Naive baseline and in ablation benchmarks.
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

  /// Size of the backing buffer (the paper's "oracle size") — for a
  /// mapped file, the bytes shared as read-only pages rather than
  /// heap-resident.
  size_t SizeBytes() const { return buffer_.size(); }

  /// The raw flat-format bytes backing this view (v4 bytes, also for a
  /// converted v1-v3 file).
  std::string_view buffer() const { return buffer_; }

  /// The format version of the bytes opened (1, 2 or 3) when they were
  /// converted to an in-memory v4 copy at open; 0 when served in place.
  uint32_t converted_from() const { return converted_from_; }
  /// The pair count the opened file records: pair_set().size(), except for
  /// a converted v1 or v2 file, which stored both orientations of its
  /// pairs.
  uint64_t stored_num_pairs() const { return stored_num_pairs_; }

 private:
  OracleView() = default;

  Status CheckQueryIds(uint32_t s, uint32_t t) const {
    if (s >= pois_.size() || t >= pois_.size()) {
      return Status::InvalidArgument("POI index out of range");
    }
    return Status::Ok();
  }

  std::string_view buffer_;
  // Keeps buffer_ alive: the MmapFile (Open) or std::string (FromBytes);
  // null when FromBuffer borrowed caller-owned bytes.
  std::shared_ptr<const void> owner_;
  double epsilon_ = 0.0;
  std::span<const SurfacePoint> pois_;
  CompressedTreeView tree_;
  NodePairSetView pairs_;
  uint32_t converted_from_ = 0;
  uint64_t stored_num_pairs_ = 0;
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
