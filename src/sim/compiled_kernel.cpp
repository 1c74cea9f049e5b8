#include "sim/compiled_kernel.h"

#include "common/error.h"

namespace femu {

namespace {

// eval<Word>()'s switch must cover every op the lowering emits; reject
// unknown comb cells at compile-the-circuit time so a future CellType added
// to cell.h but not to the kernel fails loudly instead of silently leaving
// stale slot values.
constexpr bool kernel_handles(CellType type) noexcept {
  switch (type) {
    case CellType::kBuf:
    case CellType::kNot:
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kNand:
    case CellType::kNor:
    case CellType::kXor:
    case CellType::kXnor:
    case CellType::kMux:
      return true;
    default:
      return false;
  }
}

}  // namespace

CompiledKernel::CompiledKernel(const Circuit& circuit) : circuit_(&circuit) {
  circuit.validate();
  num_slots_ = circuit.node_count();

  program_.reserve(circuit.num_gates());
  for (NodeId id = 0; id < num_slots_; ++id) {
    const CellType type = circuit.type(id);
    if (type == CellType::kConst1) {
      const1_slots_.push_back(id);
      continue;
    }
    if (!is_comb_cell(type)) {
      continue;  // const0/inputs/DFFs live in pre-loaded slots
    }
    FEMU_CHECK(kernel_handles(type), "cell type ", cell_name(type),
               " has no compiled-kernel lowering");
    const auto fanins = circuit.fanins(id);
    Instr in;
    in.dest = id;
    in.op = type;
    in.a = fanins[0];
    in.b = fanins.size() > 1 ? fanins[1] : fanins[0];
    in.c = fanins.size() > 2 ? fanins[2] : fanins[0];
    program_.push_back(in);
  }

  input_slots_.assign(circuit.inputs().begin(), circuit.inputs().end());
  dff_slots_.assign(circuit.dffs().begin(), circuit.dffs().end());
  const std::vector<NodeId> drivers = circuit.dff_drivers();
  dff_d_slots_.assign(drivers.begin(), drivers.end());
  output_slots_.reserve(circuit.num_outputs());
  for (const auto& port : circuit.outputs()) {
    output_slots_.push_back(port.driver);
  }
}

std::shared_ptr<const CompiledKernel> compile_kernel(const Circuit& circuit) {
  return std::make_shared<const CompiledKernel>(circuit);
}

}  // namespace femu
