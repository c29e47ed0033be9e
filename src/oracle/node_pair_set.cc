#include "oracle/node_pair_set.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <utility>

#include "base/logging.h"

namespace tso {
namespace {

/// One unit of the §3.3 splitting recursion: either emits (a, b) as
/// well-separated or pushes the split children. Shared by the serial and
/// parallel paths so both walk the identical recursion tree.
struct SplitWalk {
  const CompressedTree& tree;
  double separation;
  const std::function<double(uint32_t, uint32_t)>& center_dist;
  std::vector<NodePair>* out;
  size_t considered = 0;
  size_t dist_evals = 0;

  /// Processes one pair: emits it if well-separated, otherwise feeds the
  /// split children to `push(a, b)`.
  template <typename PushFn>
  void Step(uint32_t a, uint32_t b, PushFn&& push) {
    ++considered;
    const CompressedTree::Node& na = tree.node(a);
    const CompressedTree::Node& nb = tree.node(b);
    const double dist = center_dist(na.center, nb.center);
    ++dist_evals;
    // Radii of the *enlarged* disks (2x node radius; Distance property).
    const double enlarged = 2.0 * std::max(na.radius, nb.radius);
    if (dist >= separation * enlarged) {
      out->push_back({a, b, dist});
      return;
    }
    // Split the larger-radius node (ties: smaller node id, §3.3).
    bool split_a;
    if (na.radius != nb.radius) {
      split_a = na.radius > nb.radius;
    } else {
      split_a = a <= b;
    }
    // A leaf (radius 0) can never be the split side of a non-separated pair
    // unless both are leaves with distance < separation*0 = 0, i.e. a == b
    // co-located; radius ties at 0 mean dist == 0 which is well-separated.
    const uint32_t to_split = split_a ? a : b;
    TSO_CHECK_GT(tree.node(to_split).num_children, 0u);
    for (uint32_t c = tree.node(to_split).first_child; c != kInvalidId;
         c = tree.node(c).next_sibling) {
      push(split_a ? c : a, split_a ? b : c);
    }
  }

  void Run(std::vector<std::pair<uint32_t, uint32_t>>& stack) {
    while (!stack.empty()) {
      const auto [a, b] = stack.back();
      stack.pop_back();
      Step(a, b, [&stack](uint32_t x, uint32_t y) {
        stack.emplace_back(x, y);
      });
    }
  }
};

}  // namespace

StatusOr<NodePairSet> NodePairSet::FromPairs(std::span<const NodePair> pairs) {
  std::vector<uint64_t> keys;
  keys.reserve(pairs.size());
  for (const NodePair& pair : pairs) {
    if (IsEmptyPairSlot(pair)) {
      return Status::InvalidArgument(
          "node pair set: (kInvalidId, kInvalidId) is the reserved empty-slot "
          "key");
    }
    keys.push_back(PairKey(pair.a, pair.b));
  }
  StatusOr<PerfectHash> hash = PerfectHash::Build(keys);
  if (!hash.ok()) return hash.status();
  NodePairSet set;
  set.records_.assign(hash->num_slots(), kEmptyPairSlot);
  for (size_t i = 0; i < pairs.size(); ++i) {
    set.records_[hash->Slot(keys[i])] = pairs[i];
  }
  set.hash_ = std::move(*hash);
  set.num_pairs_ = pairs.size();
  return set;
}

StatusOr<NodePairSet> NodePairSet::Generate(
    const CompressedTree& tree, double epsilon,
    const std::function<double(uint32_t, uint32_t)>& center_dist,
    NodePairSetStats* stats) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const double separation = 2.0 / epsilon + 2.0;

  std::vector<NodePair> pairs;
  SplitWalk walk{tree, separation, center_dist, &pairs};
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  stack.emplace_back(tree.root(), tree.root());
  walk.Run(stack);

  if (stats != nullptr) {
    stats->pairs_considered = walk.considered;
    stats->pairs_final = pairs.size();
    stats->distance_evals = walk.dist_evals;
  }
  return FromPairs(pairs);
}

StatusOr<NodePairSet> NodePairSet::Generate(
    const CompressedTree& tree, double epsilon,
    const NodePairParallelOptions& options, NodePairSetStats* stats) {
  if (options.num_threads <= 1 || options.make_center_dist == nullptr) {
    if (options.make_center_dist == nullptr) {
      return Status::InvalidArgument("make_center_dist is required");
    }
    return Generate(tree, epsilon, options.make_center_dist(0), stats);
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const double separation = 2.0 / epsilon + 2.0;
  const uint32_t num_threads = options.num_threads;

  // Breadth-first seed expansion on the calling thread (with worker 0's
  // distance function — no worker is running yet) until the frontier is wide
  // enough to shard.
  const std::function<double(uint32_t, uint32_t)> seed_dist =
      options.make_center_dist(0);
  std::vector<NodePair> done;
  SplitWalk seed_walk{tree, separation, seed_dist, &done};
  std::deque<std::pair<uint32_t, uint32_t>> frontier;
  frontier.emplace_back(tree.root(), tree.root());
  const size_t target_seeds = 8 * static_cast<size_t>(num_threads);
  while (!frontier.empty() && frontier.size() < target_seeds) {
    const auto [a, b] = frontier.front();
    frontier.pop_front();
    seed_walk.Step(a, b, [&frontier](uint32_t x, uint32_t y) {
      frontier.emplace_back(x, y);
    });
  }

  // Shard the frontier over the workers: each seed is an independent subtree
  // of the recursion.
  std::vector<std::pair<uint32_t, uint32_t>> seeds(frontier.begin(),
                                                   frontier.end());
  std::vector<std::vector<NodePair>> shard_pairs(num_threads);
  std::vector<size_t> shard_considered(num_threads, 0);
  std::vector<size_t> shard_evals(num_threads, 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    pool.emplace_back([&, t]() {
      const std::function<double(uint32_t, uint32_t)> dist_fn =
          options.make_center_dist(t);
      SplitWalk walk{tree, separation, dist_fn, &shard_pairs[t]};
      std::vector<std::pair<uint32_t, uint32_t>> stack;
      while (true) {
        const size_t k = next.fetch_add(1);
        if (k >= seeds.size()) break;
        stack.clear();
        stack.push_back(seeds[k]);
        walk.Run(stack);
      }
      shard_considered[t] = walk.considered;
      shard_evals[t] = walk.dist_evals;
    });
  }
  for (std::thread& w : pool) w.join();

  size_t considered = seed_walk.considered;
  size_t dist_evals = seed_walk.dist_evals;
  for (uint32_t t = 0; t < num_threads; ++t) {
    considered += shard_considered[t];
    dist_evals += shard_evals[t];
    done.insert(done.end(), shard_pairs[t].begin(), shard_pairs[t].end());
  }

  if (stats != nullptr) {
    stats->pairs_considered = considered;
    stats->pairs_final = done.size();
    stats->distance_evals = dist_evals;
  }
  return FromPairs(done);
}

}  // namespace tso
