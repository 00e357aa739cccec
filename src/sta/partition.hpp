#pragma once

/// \file partition.hpp
/// Netlist partitioning: the timing graph cut into coarse vertex
/// groups at low-fanout net boundaries.
///
/// The partition cover is pure metadata — it never affects timing
/// results.  Consumers: StaEngine::DeltaPlan::partitions (the dirty
/// cone intersected with partition membership), the sweep's
/// PruneStats::dirty_partition_fraction, and partition_instances()
/// (sta/macromodel.hpp), which carves hierarchical blocks from it.
///
/// Construction (PartitionSet::build):
///  1. union-find over the edge list: every edge that is NOT a cut
///     candidate (cell arcs, high-fanout net arcs) unites its endpoint
///     vertices — cones connected by wide nets stay together;
///  2. cut-candidate edges (arcs of low-fanout nets — the cheap,
///     registered-output-like boundaries) are then greedily re-merged
///     smallest-merge-first (a deterministic lazy min-heap keyed on the
///     merged size, ties by edge index) while the merged partition
///     stays under a size cap — balance-aware: chains coalesce into
///     near-uniform coarse blocks instead of one cap-sized block with
///     one-gate fragments stranded behind it;
///  3. partitions are numbered by their smallest vertex, each
///     partition's vertices are sorted by (topological level, vertex),
///     and the surviving cross-partition edges define a partition DAG
///     plus the frontier-interface vertex set (a scenario whose noisy
///     nets touch no interface of a partition cannot change anything
///     downstream of it).

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace waveletic::sta {

/// Knobs of PartitionSet::build.
struct PartitionOptions {
  /// Net arcs whose net drives at most this many sinks are cut
  /// candidates (low-fanout boundaries); higher-fanout nets always stay
  /// inside one partition.  Negative disables cutting entirely (the
  /// whole connected graph becomes one partition).
  int cut_fanout = 2;
  /// Size cap for greedy re-merging across cut candidates; 0 selects
  /// max(32, num_vertices / 16) — a pure function of the graph, so the
  /// partitioning is machine-independent.
  size_t max_partition_vertices = 0;
};

/// One directed timing-graph edge handed to the partitioner.
struct PartitionEdge {
  int from = -1;               ///< source vertex
  int to = -1;                 ///< sink vertex
  bool cut_candidate = false;  ///< low-fanout net arc: may be cut
};

/// The partition cover of a timing graph: disjoint vertex groups, a
/// partition-level dependency DAG, and the interface (frontier) vertex
/// set.  Immutable once built.
class PartitionSet {
 public:
  PartitionSet() = default;

  /// Partitions a graph of `num_vertices` vertices with topological
  /// `level[v]` per vertex and the given edge list.  Deterministic:
  /// depends only on the arguments (greedy merge walks `edges` in
  /// order).  Every vertex lands in exactly one partition.
  [[nodiscard]] static PartitionSet build(size_t num_vertices,
                                          std::span<const int> level,
                                          std::span<const PartitionEdge> edges,
                                          const PartitionOptions& options = {});

  /// Number of partitions.
  [[nodiscard]] size_t size() const noexcept { return parts_.size(); }
  /// Number of vertices of the partitioned graph.
  [[nodiscard]] size_t num_vertices() const noexcept {
    return partition_of_.size();
  }

  /// Partition owning vertex `v`.
  [[nodiscard]] int partition_of(int v) const {
    return partition_of_[static_cast<size_t>(v)];
  }
  /// Vertices of partition `k`, sorted by (topological level, vertex) —
  /// iterating them in order is a valid serial propagation order.
  [[nodiscard]] const std::vector<int>& vertices(size_t k) const {
    return parts_[k].vertices;
  }
  /// Max number of partition-`k` vertices sharing one topological
  /// level.
  [[nodiscard]] size_t width(size_t k) const { return parts_[k].width; }
  /// Partitions that must complete before `k` may start (cross-edge
  /// sources), ascending, deduplicated.
  [[nodiscard]] const std::vector<uint32_t>& predecessors(size_t k) const {
    return parts_[k].predecessors;
  }
  /// Partitions depending on `k`, ascending, deduplicated.
  [[nodiscard]] const std::vector<uint32_t>& successors(size_t k) const {
    return parts_[k].successors;
  }

  /// Frontier-interface vertices: endpoints of cross-partition edges,
  /// ascending.  A noise annotation that cannot reach a partition's
  /// interface cannot affect other partitions — the hook scenario
  /// pruning builds on.
  [[nodiscard]] const std::vector<int>& interface_vertices() const noexcept {
    return interface_vertices_;
  }
  /// True when vertex `v` is a frontier-interface vertex.
  [[nodiscard]] bool is_interface(int v) const {
    return is_interface_[static_cast<size_t>(v)];
  }

  /// Surviving cross-partition edges (from, to), in input edge order.
  [[nodiscard]] const std::vector<std::pair<int, int>>& cross_edges()
      const noexcept {
    return cross_edges_;
  }

 private:
  struct Partition {
    std::vector<int> vertices;
    std::vector<uint32_t> predecessors;
    std::vector<uint32_t> successors;
    size_t width = 0;
  };

  std::vector<Partition> parts_;
  std::vector<int> partition_of_;
  std::vector<int> interface_vertices_;
  std::vector<char> is_interface_;
  std::vector<std::pair<int, int>> cross_edges_;
};

}  // namespace waveletic::sta
