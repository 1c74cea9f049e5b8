#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "netlist/circuit.h"
#include "sim/compiled_kernel.h"

namespace femu {

/// 64-machine bit-parallel logic simulator.
///
/// Every node value is a 64-bit word; lane k carries the node's value in
/// machine k. All machines receive the same stimulus (inputs are broadcast
/// to all lanes) but may hold different flip-flop states — exactly the shape
/// of a single-stuck-SEU campaign, where 64 faulty machines differ from the
/// golden run only in their state evolution. This is the workhorse behind
/// fault::ParallelFaultSimulator.
///
/// By default the combinational network executes through a CompiledKernel
/// (flat instruction stream, pre-resolved fanin slots); construct with
/// SimBackend::kInterpreted to walk the Circuit object graph per cycle
/// instead (the original engine, kept as the measured baseline).
class ParallelSimulator {
 public:
  explicit ParallelSimulator(const Circuit& circuit,
                             SimBackend backend = SimBackend::kCompiled);

  /// Shares a pre-built kernel (one kernel serves many engines — this is how
  /// the threaded campaign sharder avoids re-lowering per worker).
  explicit ParallelSimulator(std::shared_ptr<const CompiledKernel> kernel);

  [[nodiscard]] SimBackend backend() const noexcept {
    return kernel_ ? SimBackend::kCompiled : SimBackend::kInterpreted;
  }

  /// All lanes to the reset state (all flip-flops 0).
  void reset();

  /// Broadcasts the scalar state to all 64 lanes.
  void broadcast_state(const BitVec& state) { blend_state(state, ~0ULL); }

  /// Broadcasts the scalar state to the lanes of `lanes` only; the other
  /// lanes keep their state.
  void blend_state(const BitVec& state, std::uint64_t lanes);

  /// XORs lane `lane` of flip-flop `ff_index` (SEU injection).
  void flip_state_bit(std::size_t ff_index, unsigned lane);

  /// Exchanges the DFF state with `state` (one word per DFF) in O(1):
  /// several state banks take turns on one value array.
  void swap_state(std::vector<std::uint64_t>& state) noexcept {
    state_.swap(state);
  }

  /// Combinational evaluation with `inputs` broadcast to every lane.
  void eval(const BitVec& inputs);

  /// Clock edge: state <- D in every lane.
  void step();

  void cycle(const BitVec& inputs) {
    eval(inputs);
    step();
  }

  /// Lanes whose primary outputs differ from the golden outputs
  /// (bit k set <=> machine k shows an output mismatch). Call after eval().
  [[nodiscard]] std::uint64_t output_mismatch_lanes(
      const BitVec& golden_outputs) const;

  /// Lanes whose flip-flop state differs from the golden state
  /// (bit k set <=> machine k has not converged back to golden).
  [[nodiscard]] std::uint64_t state_mismatch_lanes(
      const BitVec& golden_state) const;

  /// State of one lane as a scalar BitVec (diagnostics / tests).
  [[nodiscard]] BitVec lane_state(unsigned lane) const;

  /// Outputs of one lane after eval() (diagnostics / tests).
  [[nodiscard]] BitVec lane_outputs(unsigned lane) const;

  /// Raw 64-lane word of a node after eval() (diagnostics).
  [[nodiscard]] std::uint64_t node_word(NodeId id) const;

  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }

 private:
  void eval_loaded_inputs();

  const Circuit& circuit_;
  std::shared_ptr<const CompiledKernel> kernel_;  // null when interpreted
  std::vector<NodeId> dff_d_;          // D-driver per DFF, snapshot
  std::vector<std::uint64_t> values_;  // per node, one lane per bit
  std::vector<std::uint64_t> state_;   // per DFF
};

}  // namespace femu
