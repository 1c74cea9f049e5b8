#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace femu {

/// Structural diff between two revisions of a circuit — the input of
/// cone-exact incremental re-grading (fault/journal.h).
///
/// Two circuits are *interface compatible* when their primary-input list,
/// flip-flop list (ids in declaration order — the FF index space every SEU
/// fault names) and primary-output count coincide. Only then do a fault
/// list and a testbench mean the same thing on both revisions; otherwise
/// the differ reports why and the re-grader degrades to a full re-run.
///
/// For compatible circuits the diff is node-by-node over the dense id
/// space: a node is *edited* when its cell type or any fanin differs
/// (connect_dff stores the D driver in the fanin array, so D-pin rewires
/// are ordinary fanin edits), *removed* when only the old revision has its
/// id, *added* when only the new one does. A changed primary-output driver
/// edits nothing structural — the driver node still computes the same
/// function — so it lands in the *observe* seed lists instead: only what
/// is watched changed, not what is computed. The seed lists feed
/// dirty_influence below.
struct CircuitDiff {
  bool interface_compatible = false;
  /// Why the interfaces differ (empty when compatible).
  std::string incompatibility;
  /// Function-edit seeds in the old revision: edited + removed nodes.
  /// Ascending, deduplicated.
  std::vector<NodeId> dirty_seeds_old;
  /// Function-edit seeds in the new revision: edited + added nodes.
  /// Ascending, deduplicated.
  std::vector<NodeId> dirty_seeds_new;
  /// Observation seeds: old/new drivers of rewired primary outputs. Their
  /// value is unchanged but newly (un)observed, so only faults whose cone
  /// *contains* them matter — no forward propagation.
  std::vector<NodeId> observe_seeds_old;
  std::vector<NodeId> observe_seeds_new;

  /// Compatible and not a single node or output driver differs.
  [[nodiscard]] bool identical() const noexcept {
    return interface_compatible && dirty_seeds_old.empty() &&
           dirty_seeds_new.empty() && observe_seeds_old.empty() &&
           observe_seeds_new.empty();
  }
};

[[nodiscard]] CircuitDiff diff_circuits(const Circuit& old_circuit,
                                        const Circuit& new_circuit);

/// Influence bitset of an edit: node ids whose forward fanout cone (over
/// combinational fanin→node edges plus the D-driver→flip-flop back edge,
/// closed across clock edges) intersects the forward
/// closure of `seeds`, or contains a node in `observe_seeds`.
///
/// Equivalently: R = {x : fwd(x) ∩ (fwd(seeds) ∪ observe_seeds) ≠ ∅},
/// computed as one forward reachability pass from the function-edit seeds
/// (D = fwd(seeds)) followed by one backward pass from D ∪ observe_seeds —
/// O(nodes + edges), no per-node cone materialization. Observe seeds skip
/// the forward pass: a rewired output's driver computes the same value, so
/// nothing downstream of it changes — only faults that can reach the
/// driver itself see a different response. A fault seeded at a node
/// outside R has a fanout cone provably disjoint from every edited node's
/// cone and from every rewired observation point, on this revision.
[[nodiscard]] std::vector<std::uint64_t> dirty_influence(
    const Circuit& circuit, std::span<const NodeId> seeds,
    std::span<const NodeId> observe_seeds = {});

/// Tests a node id in a dirty_influence bitset.
[[nodiscard]] inline bool influence_contains(
    std::span<const std::uint64_t> bits, NodeId id) noexcept {
  return (bits[id >> 6] >> (id & 63)) & 1u;
}

/// Per-FF dirty flags for an interface-compatible diff, under the
/// both-revisions rule: FF i is *clean* only when its cone avoids the edit
/// influence in the old revision AND in the new one. (One side is not
/// enough: a removed fanout edge can pull an edited node out of the new
/// cone while the journaled classification still depended on it in the old
/// circuit. When both sides are clean, the two cones contain the same
/// unedited gates and see identical golden boundary values, so the
/// journaled classification transfers exactly — the dirty set is not just
/// sound but cone-exact.) An SEU fault at (ff, cycle) is re-grade-dirty
/// iff dirty[ff]; the cycle never matters, because influence is purely
/// structural.
[[nodiscard]] std::vector<std::uint8_t> dirty_ff_set(
    const Circuit& old_circuit, const Circuit& new_circuit,
    const CircuitDiff& diff);

}  // namespace femu
