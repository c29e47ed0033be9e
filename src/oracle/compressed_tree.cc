#include "oracle/compressed_tree.h"

#include "base/logging.h"
#include "base/probe_stats.h"

namespace tso {
namespace {

/// Software prefetch of the cache line holding `addr` (read intent,
/// moderate temporal locality); nothing on toolchains without the builtin.
inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/2);
#else
  (void)addr;
#endif
}

/// Follows single-child chains downward: the surviving node of a chain is
/// its bottom node (§3.2's splice deletes each single-child node and
/// re-attaches its child to the deleted node's parent).
uint32_t Collapse(const PartitionTree& tree, uint32_t id) {
  while (tree.node(id).children.size() == 1) {
    id = tree.node(id).children[0];
  }
  return id;
}

}  // namespace

CompressedTree CompressedTree::FromPartitionTree(const PartitionTree& tree) {
  CompressedTree out;
  out.height_ = tree.height();
  out.leaf_of_poi_.assign(tree.num_pois(), kInvalidId);

  // Note: the root is never deleted (it has no parent), but its single-child
  // descendants still collapse.
  struct Item {
    uint32_t orig;
    uint32_t new_parent;
  };
  std::vector<Item> stack;
  stack.push_back({tree.root(), kInvalidId});
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const uint32_t orig =
        item.new_parent == kInvalidId ? item.orig : Collapse(tree, item.orig);
    const PartitionTree::Node& src = tree.node(orig);
    const uint32_t id = static_cast<uint32_t>(out.nodes_.size());
    Node node;
    node.center = src.center;
    node.layer = src.layer;
    node.parent = item.new_parent;
    node.radius = src.children.empty() ? 0.0 : src.radius;
    out.nodes_.push_back(node);
    if (item.new_parent == kInvalidId) {
      out.root_ = id;
    } else {
      Node& parent = out.nodes_[item.new_parent];
      out.nodes_[id].next_sibling = parent.first_child;
      parent.first_child = id;
      ++parent.num_children;
    }
    if (src.children.empty()) {
      out.leaf_of_poi_[src.center] = id;
    }
    for (uint32_t c : src.children) stack.push_back({c, id});
  }
  for (uint32_t leaf : out.leaf_of_poi_) TSO_CHECK(leaf != kInvalidId);
  return out;
}

Status ValidateTreeChildLists(std::span<const CompressedTreeNode> nodes) {
  for (uint32_t id = 0; id < nodes.size(); ++id) {
    const CompressedTreeNode& node = nodes[id];
    if (node.num_children > nodes.size()) {
      return Status::InvalidArgument("tree child count out of range");
    }
    uint32_t child = node.first_child;
    for (uint32_t i = 0; i < node.num_children; ++i) {
      if (child == kInvalidId || nodes[child].parent != id) {
        return Status::InvalidArgument(
            "tree child list inconsistent with parent links");
      }
      child = nodes[child].next_sibling;
    }
    if (child != kInvalidId) {
      return Status::InvalidArgument(
          "tree child list longer than num_children");
    }
  }
  return Status::Ok();
}

void CompressedTreeView::AncestorArray(uint32_t leaf,
                                       std::vector<uint32_t>* out) const {
  out->assign(static_cast<size_t>(height_) + 1, kInvalidId);
  uint32_t* slots = out->data();
  const Node* nodes = nodes_.data();
  uint64_t issued_prefetches = 0;
  uint32_t cur = leaf;
  while (cur != kInvalidId) {
    const Node& node = nodes[cur];
    const uint32_t parent = node.parent;
    // Prefetch the next node on the path (self at the root — harmless, and
    // it keeps the body branch-free) before the dependent store retires.
    PrefetchRead(&nodes[parent != kInvalidId ? parent : cur]);
    issued_prefetches++;
    slots[node.layer] = cur;
    cur = parent;
  }
  if (ProbeCounters* pc = ProbeCounterScope::Active(); pc != nullptr) {
    pc->prefetches += issued_prefetches;
  }
}

Status CompressedTreeView::CheckInvariants() const {
  if (nodes_.empty()) return Status::Internal("empty compressed tree");
  if (nodes_.size() > 2 * leaf_of_poi_.size()) {
    return Status::Internal("compressed tree larger than 2n-1 (Lemma 9)");
  }
  size_t leaves = 0;
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.num_children == 1 && id != root_) {
      return Status::Internal("non-root single-child node survived");
    }
    if (node.num_children == 0) {
      ++leaves;
      if (node.radius != 0.0) {
        return Status::Internal("leaf with nonzero radius");
      }
      if (node.layer != height_) {
        return Status::Internal("leaf not at layer h");
      }
    }
    if (node.parent != kInvalidId &&
        nodes_[node.parent].layer >= node.layer) {
      return Status::Internal("layer does not increase downward");
    }
  }
  if (leaves != leaf_of_poi_.size()) {
    return Status::Internal("leaf count != n");
  }
  return Status::Ok();
}

}  // namespace tso
