// Compiled evaluation kernel: lowering invariants, cycle-exact agreement of
// the compiled scalar/64/512-lane engines with the interpreted reference on
// random and registry circuits, and the campaign defaults. Campaigns on
// every backend, lane width and thread count are checked by the
// differential harness (test_campaign_diff.cpp).

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "circuits/small.h"
#include "common/error.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "sim/levelized_sim.h"
#include "sim/parallel_sim.h"
#include "stim/generate.h"

namespace femu {
namespace {

// ---- lowering --------------------------------------------------------------

TEST(CompiledKernelTest, ProgramHoldsExactlyTheCombCells) {
  const Circuit c = circuits::build_b06_like();
  const CompiledKernel kernel(c);
  EXPECT_EQ(kernel.program().size(), c.num_gates());
  EXPECT_EQ(kernel.num_slots(), c.node_count());
  EXPECT_EQ(kernel.input_slots().size(), c.num_inputs());
  EXPECT_EQ(kernel.dff_slots().size(), c.num_dffs());
  EXPECT_EQ(kernel.dff_d_slots().size(), c.num_dffs());
  EXPECT_EQ(kernel.output_slots().size(), c.num_outputs());
  for (const auto& in : kernel.program()) {
    EXPECT_TRUE(is_comb_cell(in.op)) << cell_name(in.op);
    // Node-id order is the sanctioned topological order: every fanin slot
    // must precede its destination.
    EXPECT_LT(in.a, in.dest);
    EXPECT_LT(in.b, in.dest);
    EXPECT_LT(in.c, in.dest);
  }
}

TEST(CompiledKernelTest, InitSetsConstantSlots) {
  Circuit c("consts");
  const NodeId one = c.add_const(true);
  const NodeId zero = c.add_const(false);
  c.add_output("one", one);
  c.add_output("zero", zero);
  const auto kernel = compile_kernel(c);
  LaneEngine<std::uint64_t> engine(kernel);
  engine.eval(BitVec(0));
  EXPECT_EQ(engine.node_word(one), ~std::uint64_t{0});
  EXPECT_EQ(engine.node_word(zero), std::uint64_t{0});
}

TEST(CompiledKernelTest, RejectsUnconnectedDff) {
  Circuit c("dangling");
  (void)c.add_dff("q");
  EXPECT_THROW(CompiledKernel{c}, Error);
}

// ---- compiled vs interpreted, cycle-exact ----------------------------------

// Drives the interpreted LevelizedSimulator and the three compiled lane
// widths (scalar, 64, 512) cycle-by-cycle from identical injected states and checks outputs and
// state after every cycle.
void check_engines_agree(const Circuit& circuit, const Testbench& tb,
                         std::uint64_t seed) {
  LevelizedSimulator interp(circuit, SimBackend::kInterpreted);
  LevelizedSimulator scalar(circuit, SimBackend::kCompiled);
  const auto kernel = compile_kernel(circuit);
  LaneEngine<std::uint64_t> lanes64(kernel);
  LaneEngine<Word512> lanes512(kernel);

  // A nonzero start state exercises DFF-load slots; derive it from the seed.
  BitVec state(circuit.num_dffs());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state.set(i, ((seed >> (i % 64)) & 1) != 0);
  }
  interp.set_state(state);
  scalar.set_state(state);
  lanes64.broadcast_state(state);
  lanes512.broadcast_state(state);

  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    const BitVec out = interp.eval(tb.vector(t));
    EXPECT_TRUE(out == scalar.eval(tb.vector(t)));
    lanes64.eval(tb.vector(t));
    lanes512.eval(tb.vector(t));
    EXPECT_TRUE(out == lanes64.lane_outputs(0));
    EXPECT_TRUE(out == lanes64.lane_outputs(63));
    EXPECT_TRUE(out == lanes512.lane_outputs(0));
    EXPECT_TRUE(out == lanes512.lane_outputs(511));
    interp.step();
    scalar.step();
    lanes64.step();
    lanes512.step();
    EXPECT_TRUE(interp.state() == scalar.state());
    EXPECT_TRUE(interp.state() == lanes64.lane_state(17));
    EXPECT_TRUE(interp.state() == lanes512.lane_state(300));
  }
}

class CompiledKernelAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompiledKernelAgreement, RandomCircuitsAllLaneWidths) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 300;
  const Circuit circuit = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 48, GetParam() + 7);
  check_engines_agree(circuit, tb, GetParam() * 0x9e3779b97f4a7c15ull + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledKernelAgreement,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(CompiledKernelAgreementTest, RegisteredCircuits) {
  for (const char* name : {"b01_like", "b03_like", "b06_like", "b09_like"}) {
    const Circuit circuit = circuits::build_by_name(name);
    const Testbench tb = random_testbench(circuit.num_inputs(), 32, 11);
    check_engines_agree(circuit, tb, 0xfeedu);
  }
}

TEST(CompiledKernelTest, SharedKernelServesManyEngines) {
  const Circuit circuit = circuits::build_by_name("b03_like");
  const Testbench tb = random_testbench(circuit.num_inputs(), 16, 3);
  const auto kernel = compile_kernel(circuit);
  ParallelSimulator a(kernel);
  ParallelSimulator b(kernel);  // same kernel, independent state
  LevelizedSimulator ref(circuit, SimBackend::kInterpreted);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    a.cycle(tb.vector(t));
    if (t % 2 == 0) b.cycle(tb.vector(t));  // desynchronised on purpose
    (void)ref.cycle(tb.vector(t));
  }
  EXPECT_TRUE(a.lane_state(5) == ref.state());
}

// ---- campaign defaults -----------------------------------------------------

TEST(CampaignShardingTest, DefaultConfigUsesHardwareConcurrency) {
  const Circuit circuit = circuits::build_shift_register(4);
  const Testbench tb = zero_testbench(1, 16);
  ParallelFaultSimulator sim(circuit, tb);
  EXPECT_EQ(sim.config().backend, SimBackend::kCompiled);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());
  (void)sim.run(faults);
  EXPECT_GE(sim.last_run_threads(), 1u);
}

}  // namespace
}  // namespace femu
