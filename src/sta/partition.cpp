#include "sta/partition.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>

#include "util/error.hpp"

namespace waveletic::sta {
namespace {

/// Union-find with union-by-size and path halving.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int find(int v) {
    auto x = static_cast<size_t>(v);
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return static_cast<int>(x);
  }

  [[nodiscard]] size_t set_size(int root) const {
    return size_[static_cast<size_t>(root)];
  }

  /// Unites the sets of a and b; returns false when already united.
  bool unite(int a, int b) {
    int ra = find(a);
    int rb = find(b);
    if (ra == rb) return false;
    // Deterministic tie-break: keep the smaller root id as the
    // representative when sizes tie, so the result is a pure function
    // of the input order.
    if (size_[static_cast<size_t>(ra)] < size_[static_cast<size_t>(rb)] ||
        (size_[static_cast<size_t>(ra)] == size_[static_cast<size_t>(rb)] &&
         rb < ra)) {
      std::swap(ra, rb);
    }
    parent_[static_cast<size_t>(rb)] = static_cast<size_t>(ra);
    size_[static_cast<size_t>(ra)] += size_[static_cast<size_t>(rb)];
    return true;
  }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
};

void push_unique_sorted(std::vector<uint32_t>& v, uint32_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

}  // namespace

PartitionSet PartitionSet::build(size_t num_vertices,
                                 std::span<const int> level,
                                 std::span<const PartitionEdge> edges,
                                 const PartitionOptions& options) {
  util::require(level.size() == num_vertices,
                "PartitionSet: level array size ", level.size(),
                " does not match ", num_vertices, " vertices");
  const size_t max_size =
      options.max_partition_vertices != 0
          ? options.max_partition_vertices
          : std::max<size_t>(32, num_vertices / 16);

  UnionFind uf(num_vertices);
  // Pass 1: every non-candidate edge binds its endpoints.
  for (const auto& e : edges) {
    if (!e.cut_candidate) uf.unite(e.from, e.to);
  }
  // Pass 2: balance-aware greedy re-merge across cut candidates —
  // always the smallest feasible merge first — while the merged block
  // stays under the cap.  An in-order walk can grow one block to the
  // cap and strand single-gate fragments behind it (cap-vs-1 shard
  // skew); picking the globally smallest merged size keeps block sizes
  // near-uniform.  The lazy min-heap stays deterministic: set sizes
  // only grow, so a stale entry re-inserts under its current (strictly
  // larger) key, infeasible entries can never become feasible again,
  // and ties break by edge index — a pure function of the input order.
  {
    using QueueEntry = std::pair<size_t, size_t>;  // (merged size, edge idx)
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        feasible;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!edges[i].cut_candidate) continue;
      const int ra = uf.find(edges[i].from);
      const int rb = uf.find(edges[i].to);
      if (ra == rb) continue;
      const size_t merged = uf.set_size(ra) + uf.set_size(rb);
      if (merged <= max_size) feasible.push({merged, i});
    }
    while (!feasible.empty()) {
      const auto [size_when_pushed, i] = feasible.top();
      feasible.pop();
      const int ra = uf.find(edges[i].from);
      const int rb = uf.find(edges[i].to);
      if (ra == rb) continue;
      const size_t merged = uf.set_size(ra) + uf.set_size(rb);
      if (merged > max_size) continue;
      if (merged != size_when_pushed) {
        feasible.push({merged, i});  // stale: re-key and retry later
        continue;
      }
      uf.unite(ra, rb);
    }
  }

  // Preliminary blocks, numbered by first (smallest) member vertex.
  std::vector<int> block_of(num_vertices, -1);
  std::vector<int> root_to_block(num_vertices, -1);
  int n_blocks = 0;
  for (size_t v = 0; v < num_vertices; ++v) {
    const int root = uf.find(static_cast<int>(v));
    int& block = root_to_block[static_cast<size_t>(root)];
    if (block < 0) block = n_blocks++;
    block_of[v] = block;
  }

  // Pass 3: the union-find quotient need not be acyclic — block A can
  // feed block B at one level and be fed by it at another, which would
  // deadlock coarse (one-task-per-partition) scheduling.  Collapse
  // strongly-connected components of the quotient (iterative Tarjan,
  // deterministic) so the final partition graph is a DAG (each
  // partition is "convex": no path leaves it and comes back).
  std::vector<std::vector<int>> block_adj(static_cast<size_t>(n_blocks));
  for (const auto& e : edges) {
    const int a = block_of[static_cast<size_t>(e.from)];
    const int b = block_of[static_cast<size_t>(e.to)];
    if (a != b) block_adj[static_cast<size_t>(a)].push_back(b);
  }
  std::vector<int> scc_of(static_cast<size_t>(n_blocks), -1);
  {
    std::vector<int> index(static_cast<size_t>(n_blocks), -1);
    std::vector<int> low(static_cast<size_t>(n_blocks), 0);
    std::vector<char> on_stack(static_cast<size_t>(n_blocks), 0);
    std::vector<int> stack;
    std::vector<std::pair<int, size_t>> dfs;  // (block, next child)
    int next_index = 0;
    int scc_count = 0;
    for (int s = 0; s < n_blocks; ++s) {
      if (index[static_cast<size_t>(s)] != -1) continue;
      dfs.emplace_back(s, 0);
      while (!dfs.empty()) {
        const int u = dfs.back().first;
        size_t& ci = dfs.back().second;
        if (ci == 0) {
          index[static_cast<size_t>(u)] = low[static_cast<size_t>(u)] =
              next_index++;
          stack.push_back(u);
          on_stack[static_cast<size_t>(u)] = 1;
        }
        if (ci < block_adj[static_cast<size_t>(u)].size()) {
          const int child = block_adj[static_cast<size_t>(u)][ci++];
          if (index[static_cast<size_t>(child)] == -1) {
            dfs.emplace_back(child, 0);
          } else if (on_stack[static_cast<size_t>(child)]) {
            low[static_cast<size_t>(u)] =
                std::min(low[static_cast<size_t>(u)],
                         index[static_cast<size_t>(child)]);
          }
          continue;
        }
        if (low[static_cast<size_t>(u)] == index[static_cast<size_t>(u)]) {
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<size_t>(w)] = 0;
            scc_of[static_cast<size_t>(w)] = scc_count;
            if (w == u) break;
          }
          ++scc_count;
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          const int parent = dfs.back().first;
          low[static_cast<size_t>(parent)] =
              std::min(low[static_cast<size_t>(parent)],
                       low[static_cast<size_t>(u)]);
        }
      }
    }
  }

  PartitionSet out;
  out.partition_of_.assign(num_vertices, -1);
  // Final partitions = SCC groups, renumbered by first member vertex.
  std::vector<int> scc_to_part(static_cast<size_t>(n_blocks), -1);
  for (size_t v = 0; v < num_vertices; ++v) {
    const int scc = scc_of[static_cast<size_t>(block_of[v])];
    int& part = scc_to_part[static_cast<size_t>(scc)];
    if (part < 0) {
      part = static_cast<int>(out.parts_.size());
      out.parts_.emplace_back();
    }
    out.partition_of_[v] = part;
    out.parts_[static_cast<size_t>(part)].vertices.push_back(
        static_cast<int>(v));
  }
  // Level-sort each partition's vertices (vertex id is already the
  // secondary key: stable sort of an ascending sequence by level).
  for (auto& p : out.parts_) {
    std::stable_sort(p.vertices.begin(), p.vertices.end(),
                     [&](int a, int b) {
                       return level[static_cast<size_t>(a)] <
                              level[static_cast<size_t>(b)];
                     });
    size_t run = 0;
    int run_level = -1;
    for (const int v : p.vertices) {
      const int l = level[static_cast<size_t>(v)];
      run = l == run_level ? run + 1 : 1;
      run_level = l;
      p.width = std::max(p.width, run);
    }
  }
  // Cross edges → partition DAG + interface set.
  out.is_interface_.assign(num_vertices, 0);
  for (const auto& e : edges) {
    const int pa = out.partition_of_[static_cast<size_t>(e.from)];
    const int pb = out.partition_of_[static_cast<size_t>(e.to)];
    if (pa == pb) continue;
    out.cross_edges_.emplace_back(e.from, e.to);
    out.is_interface_[static_cast<size_t>(e.from)] = 1;
    out.is_interface_[static_cast<size_t>(e.to)] = 1;
    push_unique_sorted(out.parts_[static_cast<size_t>(pb)].predecessors,
                       static_cast<uint32_t>(pa));
    push_unique_sorted(out.parts_[static_cast<size_t>(pa)].successors,
                       static_cast<uint32_t>(pb));
  }
  for (size_t v = 0; v < num_vertices; ++v) {
    if (out.is_interface_[v]) {
      out.interface_vertices_.push_back(static_cast<int>(v));
    }
  }
  return out;
}

}  // namespace waveletic::sta
