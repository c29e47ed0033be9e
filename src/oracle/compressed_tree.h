#ifndef TSO_ORACLE_COMPRESSED_TREE_H_
#define TSO_ORACLE_COMPRESSED_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"
#include "oracle/partition_tree.h"

namespace tso {

/// One node of the compressed partition tree. The layout is frozen: it is
/// stored verbatim (little-endian, no padding) as the tree-node section of
/// the flat oracle format, so queries over a mapped file read these structs
/// in place. Fields are ordered 8-byte-first so sizeof == the sum of the
/// member sizes (asserted below) — any layout change is a format change and
/// must bump kFlatFormatVersion in oracle/flat_format.h.
struct CompressedTreeNode {
  double radius;     // 0 for leaves
  uint32_t center;   // POI index
  int32_t layer;     // layer number in the *original* partition tree
  uint32_t parent;   // kInvalidId for the root
  uint32_t first_child = kInvalidId;  // child list head (sibling-linked)
  uint32_t next_sibling = kInvalidId;
  uint32_t num_children = 0;
};
static_assert(sizeof(CompressedTreeNode) == 32 &&
                  alignof(CompressedTreeNode) == 8,
              "CompressedTreeNode must stay padding-free: it is mapped "
              "directly from the flat oracle format");

/// Non-owning pointer+count form of the compressed tree: the traversal
/// logic (node accessors and the A_s ancestor array of §3.4) implemented
/// once over spans, shared by the owning CompressedTree and the zero-copy
/// OracleView over a mapped oracle file.
class CompressedTreeView {
 public:
  using Node = CompressedTreeNode;

  CompressedTreeView() = default;
  CompressedTreeView(std::span<const Node> nodes,
                     std::span<const uint32_t> leaf_of_poi, uint32_t root,
                     int height)
      : nodes_(nodes), leaf_of_poi_(leaf_of_poi), root_(root),
        height_(height) {}

  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t id) const { return nodes_[id]; }
  std::span<const Node> nodes() const { return nodes_; }
  uint32_t root() const { return root_; }
  int height() const { return height_; }  // h of the original tree
  uint32_t leaf_of_poi(uint32_t poi) const { return leaf_of_poi_[poi]; }
  std::span<const uint32_t> leaf_of_poi_map() const { return leaf_of_poi_; }
  size_t num_pois() const { return leaf_of_poi_.size(); }

  /// Fills `out` (resized to height()+1) with the node of each layer on the
  /// path from `leaf` to the root; layers with no node on the path get
  /// kInvalidId. This is the A_s / A_t array of §3.4. The walk is
  /// branch-free (unconditional layer-indexed stores, cmov'd parent step)
  /// and prefetches each parent node ahead of its dependent load; it reuses
  /// `out`'s capacity, so a recycled scratch vector makes it
  /// allocation-free.
  void AncestorArray(uint32_t leaf, std::vector<uint32_t>* out) const;

  /// The A_s array for a POI: a zero-copy span of the precomputed
  /// cache-line-aligned row when the view carries an ancestor table (flat
  /// minor >= 1), otherwise an AncestorArray walk into `*scratch` (the
  /// returned span then aliases it).
  std::span<const uint32_t> AncestorsOfPoi(uint32_t poi,
                                           std::vector<uint32_t>* scratch)
      const {
    if (ancestor_stride_ != 0) {
      return ancestors_.subspan(static_cast<size_t>(poi) * ancestor_stride_,
                                static_cast<size_t>(height_) + 1);
    }
    AncestorArray(leaf_of_poi_[poi], scratch);
    return {scratch->data(), scratch->size()};
  }

  /// Attaches the precomputed per-POI ancestor table (the kFlatAncestors
  /// section): `table` holds num_pois rows of `stride` uint32s, each row an
  /// AncestorArray result padded with kInvalidId. Rows must have been
  /// validated against the walk (OracleView does this at open).
  void SetAncestorTable(std::span<const uint32_t> table, uint32_t stride) {
    ancestors_ = table;
    ancestor_stride_ = stride;
  }
  bool has_ancestor_table() const { return ancestor_stride_ != 0; }

  /// Invariant check: no non-root single-child nodes, leaf radii zero,
  /// layers strictly increase downward, O(n) node count. For tests and
  /// untrusted-input validation.
  Status CheckInvariants() const;

 private:
  std::span<const Node> nodes_;
  std::span<const uint32_t> leaf_of_poi_;
  std::span<const uint32_t> ancestors_;
  uint32_t ancestor_stride_ = 0;
  uint32_t root_ = 0;
  int height_ = 0;
};

/// Load-time validation run by every oracle loader (OracleView, and through
/// it every built SeOracle and PackView): every node's child list must
/// contain exactly num_children nodes, each naming that node as its parent,
/// then terminate.
/// Combined with bounds-checked links this rules out sibling/child cycles,
/// so tree traversals (e.g. KnnQueryPruned's best-first search) terminate
/// on any loaded oracle, however corrupt the input bytes were. Requires all
/// first_child/next_sibling/parent links already bounds-checked. O(n).
Status ValidateTreeChildLists(std::span<const CompressedTreeNode> nodes);

/// The compressed partition tree (§3.2): single-child chains of the
/// partition tree are spliced out (the chain's bottom node survives and is
/// re-attached to the chain's top parent), and leaf radii are set to 0.
/// The result has O(n) nodes (Lemma 9) and is the first component of SE.
///
/// This is the owning build-time form; all lookup logic lives in
/// CompressedTreeView (see view()).
class CompressedTree {
 public:
  using Node = CompressedTreeNode;

  static CompressedTree FromPartitionTree(const PartitionTree& tree);

  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t id) const { return nodes_[id]; }
  uint32_t root() const { return root_; }
  int height() const { return height_; }  // h of the original tree
  uint32_t leaf_of_poi(uint32_t poi) const { return leaf_of_poi_[poi]; }
  const std::vector<uint32_t>& leaf_of_poi_map() const { return leaf_of_poi_; }
  size_t num_pois() const { return leaf_of_poi_.size(); }

  /// The non-owning traversal form over this tree's storage.
  CompressedTreeView view() const {
    return CompressedTreeView(nodes_, leaf_of_poi_, root_, height_);
  }

  void AncestorArray(uint32_t leaf, std::vector<uint32_t>* out) const {
    view().AncestorArray(leaf, out);
  }

  Status CheckInvariants() const { return view().CheckInvariants(); }

  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::vector<Node> nodes_;
  std::vector<uint32_t> leaf_of_poi_;
  uint32_t root_ = 0;
  int height_ = 0;
};

}  // namespace tso

#endif  // TSO_ORACLE_COMPRESSED_TREE_H_
