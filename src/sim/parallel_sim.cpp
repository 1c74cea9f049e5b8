#include "sim/parallel_sim.h"

#include "common/error.h"

namespace femu {

namespace {

constexpr std::uint64_t broadcast(bool bit) {
  return bit ? ~std::uint64_t{0} : std::uint64_t{0};
}

}  // namespace

ParallelSimulator::ParallelSimulator(const Circuit& circuit,
                                     SimBackend backend)
    : circuit_(circuit),
      kernel_(backend == SimBackend::kCompiled ? compile_kernel(circuit)
                                               : nullptr),
      values_(circuit.node_count(), 0),
      state_(circuit.num_dffs(), 0) {
  if (kernel_) {
    // compile_kernel() already validated and resolved the D drivers.
    const auto d_slots = kernel_->dff_d_slots();
    dff_d_.assign(d_slots.begin(), d_slots.end());
    kernel_->init(std::span<std::uint64_t>(values_));
  } else {
    circuit.validate();
    dff_d_ = circuit.dff_drivers();
  }
}

ParallelSimulator::ParallelSimulator(
    std::shared_ptr<const CompiledKernel> kernel)
    : circuit_(kernel->circuit()),
      kernel_(std::move(kernel)),
      values_(circuit_.node_count(), 0),
      state_(circuit_.num_dffs(), 0) {
  const auto d_slots = kernel_->dff_d_slots();
  dff_d_.assign(d_slots.begin(), d_slots.end());
  kernel_->init(std::span<std::uint64_t>(values_));
}

void ParallelSimulator::reset() {
  if (kernel_) {
    kernel_->init(std::span<std::uint64_t>(values_));
  } else {
    std::fill(values_.begin(), values_.end(), std::uint64_t{0});
  }
  std::fill(state_.begin(), state_.end(), std::uint64_t{0});
}

void ParallelSimulator::blend_state(const BitVec& state,
                                    std::uint64_t lanes) {
  FEMU_CHECK(state.size() == state_.size(), "state width ", state.size(),
             " != ", state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = (state_[i] & ~lanes) | (broadcast(state.get(i)) & lanes);
  }
}

void ParallelSimulator::flip_state_bit(std::size_t ff_index, unsigned lane) {
  FEMU_CHECK(ff_index < state_.size(), "ff index ", ff_index, " out of range");
  FEMU_CHECK(lane < 64, "lane ", lane, " out of range");
  state_[ff_index] ^= std::uint64_t{1} << lane;
}

void ParallelSimulator::eval(const BitVec& inputs) {
  FEMU_CHECK(inputs.size() == circuit_.num_inputs(), "input width ",
             inputs.size(), " != ", circuit_.num_inputs());
  const auto& pis = circuit_.inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    values_[pis[i]] = broadcast(inputs.get(i));
  }
  eval_loaded_inputs();
}

void ParallelSimulator::eval_loaded_inputs() {
  const auto& dffs = circuit_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    values_[dffs[i]] = state_[i];
  }
  if (kernel_) {
    kernel_->eval(values_.data());
    return;
  }
  const std::size_t n = circuit_.node_count();
  for (NodeId id = 0; id < n; ++id) {
    const CellType type = circuit_.type(id);
    if (!is_comb_cell(type) && type != CellType::kConst0 &&
        type != CellType::kConst1) {
      continue;
    }
    const auto fanins = circuit_.fanins(id);
    const std::uint64_t a = fanins.size() > 0 ? values_[fanins[0]] : 0;
    const std::uint64_t b = fanins.size() > 1 ? values_[fanins[1]] : 0;
    const std::uint64_t c = fanins.size() > 2 ? values_[fanins[2]] : 0;
    values_[id] = eval_cell_word(type, a, b, c);
  }
}

void ParallelSimulator::step() {
  for (std::size_t i = 0; i < dff_d_.size(); ++i) {
    state_[i] = values_[dff_d_[i]];
  }
}

std::uint64_t ParallelSimulator::output_mismatch_lanes(
    const BitVec& golden_outputs) const {
  const auto& outputs = circuit_.outputs();
  FEMU_CHECK(golden_outputs.size() == outputs.size(), "output width ",
             golden_outputs.size(), " != ", outputs.size());
  std::uint64_t mismatch = 0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    mismatch |= values_[outputs[i].driver] ^ broadcast(golden_outputs.get(i));
  }
  return mismatch;
}

std::uint64_t ParallelSimulator::state_mismatch_lanes(
    const BitVec& golden_state) const {
  FEMU_CHECK(golden_state.size() == state_.size(), "state width ",
             golden_state.size(), " != ", state_.size());
  std::uint64_t mismatch = 0;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    mismatch |= state_[i] ^ broadcast(golden_state.get(i));
  }
  return mismatch;
}

BitVec ParallelSimulator::lane_state(unsigned lane) const {
  FEMU_CHECK(lane < 64, "lane ", lane, " out of range");
  BitVec out(state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    out.set(i, ((state_[i] >> lane) & 1) != 0);
  }
  return out;
}

BitVec ParallelSimulator::lane_outputs(unsigned lane) const {
  FEMU_CHECK(lane < 64, "lane ", lane, " out of range");
  const auto& outputs = circuit_.outputs();
  BitVec out(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out.set(i, ((values_[outputs[i].driver] >> lane) & 1) != 0);
  }
  return out;
}

std::uint64_t ParallelSimulator::node_word(NodeId id) const {
  FEMU_CHECK(id < values_.size(), "node id ", id, " out of range");
  return values_[id];
}

}  // namespace femu
