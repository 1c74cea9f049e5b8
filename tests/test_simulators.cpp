// Simulator equivalence properties: the levelized, event-driven and 64-way
// parallel engines must agree cycle-exactly on every circuit; the parallel
// engine's lane isolation and mismatch masks are exercised directly, and
// the golden trace and the compiled kernel's golden slot trace agree.

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/small.h"
#include "circuits/registry.h"
#include "sim/compiled_kernel.h"
#include "sim/event_sim.h"
#include "sim/golden.h"
#include "sim/golden_slots.h"
#include "sim/levelized_sim.h"
#include "sim/parallel_sim.h"
#include "stim/generate.h"

namespace femu {
namespace {

TEST(LevelizedSimTest, ToggleFlipFlop) {
  Circuit c("toggle");
  const NodeId en = c.add_input("en");
  const NodeId q = c.add_dff("q");
  c.connect_dff(q, c.add_mux(en, q, c.add_not(q)));
  c.add_output("q_o", q);

  LevelizedSimulator sim(c);
  BitVec hold(1);
  BitVec toggle(1);
  toggle.set(0, true);
  EXPECT_FALSE(sim.cycle(toggle).get(0));  // outputs observed before edge
  EXPECT_TRUE(sim.cycle(toggle).get(0));
  EXPECT_FALSE(sim.cycle(hold).get(0));    // en=0 after second toggle: q=0
  EXPECT_FALSE(sim.cycle(toggle).get(0));
  EXPECT_TRUE(sim.state_bit(0));
}

TEST(LevelizedSimTest, SetStateAndFlip) {
  const Circuit c = circuits::build_shift_register(8);
  LevelizedSimulator sim(c);
  BitVec state(8);
  state.set(3, true);
  sim.set_state(state);
  EXPECT_TRUE(sim.state() == state);
  sim.flip_state_bit(3);
  sim.flip_state_bit(7);
  EXPECT_FALSE(sim.state_bit(3));
  EXPECT_TRUE(sim.state_bit(7));
}

TEST(LevelizedSimTest, ResetClearsEverything) {
  const Circuit c = circuits::build_counter(4);
  LevelizedSimulator sim(c);
  BitVec en(1);
  en.set(0, true);
  for (int i = 0; i < 5; ++i) {
    sim.cycle(en);
  }
  EXPECT_TRUE(sim.state().any());
  sim.reset();
  EXPECT_TRUE(sim.state().none());
}

TEST(EventSimTest, CountsEvaluationsSparsely) {
  // A wide circuit with a single active input should evaluate far fewer
  // gates per cycle than the full netlist.
  const Circuit c = circuits::build_pipeline(8, 32);
  EventSimulator sim(c);
  const BitVec zeros(c.num_inputs());
  sim.cycle(zeros);  // initial full evaluation
  const std::uint64_t after_first = sim.eval_count();
  sim.cycle(zeros);  // nothing changes: only re-fed state bits (none change)
  EXPECT_LT(sim.eval_count() - after_first, c.num_gates() / 4);
}

// ---- cross-engine equivalence ----

class SimulatorEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(SimulatorEquivalence, ThreeEnginesAgree) {
  const auto& [name, seed] = GetParam();
  const Circuit circuit = circuits::build_by_name(name);
  const Testbench tb = random_testbench(circuit.num_inputs(), 80, seed);

  LevelizedSimulator lev(circuit);
  EventSimulator evt(circuit);
  ParallelSimulator par(circuit);

  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    const BitVec out_lev = lev.eval(tb.vector(t));
    const BitVec out_evt = evt.eval(tb.vector(t));
    par.eval(tb.vector(t));
    ASSERT_TRUE(out_lev == out_evt) << name << " cycle " << t;
    ASSERT_TRUE(out_lev == par.lane_outputs(0)) << name << " cycle " << t;
    ASSERT_TRUE(out_lev == par.lane_outputs(63)) << name << " cycle " << t;
    lev.step();
    evt.step();
    par.step();
    ASSERT_TRUE(lev.state() == evt.state()) << name << " cycle " << t;
    ASSERT_TRUE(lev.state() == par.lane_state(17)) << name << " cycle " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registered, SimulatorEquivalence,
    ::testing::Combine(::testing::Values("b01_like", "b03_like", "b09_like",
                                         "lfsr32", "pipe4x16", "b14"),
                       ::testing::Values(1u, 2u)));

class RandomSimEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSimEquivalence, EnginesAgreeOnRandomCircuits) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 8;
  spec.num_dffs = 20;
  spec.num_gates = 300;
  const Circuit circuit = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 60, GetParam() + 1);

  LevelizedSimulator lev(circuit);
  EventSimulator evt(circuit);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    ASSERT_TRUE(lev.cycle(tb.vector(t)) == evt.cycle(tb.vector(t)))
        << "seed " << GetParam() << " cycle " << t;
    ASSERT_TRUE(lev.state() == evt.state());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSimEquivalence,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---- parallel simulator lane mechanics ----

TEST(ParallelSimTest, LanesAreIsolated) {
  const Circuit c = circuits::build_shift_register(8);
  ParallelSimulator sim(c);
  sim.flip_state_bit(0, 5);   // lane 5 differs at FF 0
  sim.flip_state_bit(3, 40);  // lane 40 differs at FF 3
  const BitVec golden(8);
  const std::uint64_t differs = sim.state_mismatch_lanes(golden);
  EXPECT_EQ(differs, (1ull << 5) | (1ull << 40));
  EXPECT_TRUE(sim.lane_state(0) == golden);
  EXPECT_TRUE(sim.lane_state(5).get(0));
}

TEST(ParallelSimTest, MismatchMaskTracksOutputDivergence) {
  const Circuit c = circuits::build_shift_register(4);
  const Testbench tb = zero_testbench(1, 8);
  const GoldenTrace golden = capture_golden(c, tb.vectors());

  ParallelSimulator sim(c);
  sim.flip_state_bit(3, 9);  // FF3 drives the output immediately
  sim.flip_state_bit(0, 2);  // FF0 needs 3 shifts to reach the output

  sim.eval(tb.vector(0));
  EXPECT_EQ(sim.output_mismatch_lanes(golden.outputs[0]), 1ull << 9);
  sim.step();
  sim.eval(tb.vector(1));
  EXPECT_EQ(sim.output_mismatch_lanes(golden.outputs[1]), 0u);  // flushed out
  sim.step();
  sim.eval(tb.vector(2));
  sim.step();
  sim.eval(tb.vector(3));
  // After 3 steps the lane-2 bubble arrives at the output.
  EXPECT_EQ(sim.output_mismatch_lanes(golden.outputs[3]), 1ull << 2);
}

TEST(ParallelSimTest, BroadcastStateReachesAllLanes) {
  const Circuit c = circuits::build_counter(6);
  ParallelSimulator sim(c);
  BitVec state(6);
  state.set(1, true);
  state.set(4, true);
  sim.broadcast_state(state);
  EXPECT_TRUE(sim.lane_state(0) == state);
  EXPECT_TRUE(sim.lane_state(33) == state);
  EXPECT_EQ(sim.state_mismatch_lanes(state), 0u);
}

// ---- golden trace ----

TEST(GoldenTraceTest, ShapesAndDeterminism) {
  const Circuit c = circuits::build_b03_like();
  const Testbench tb = random_testbench(c.num_inputs(), 50, 4);
  const GoldenTrace a = capture_golden(c, tb.vectors());
  const GoldenTrace b = capture_golden(c, tb.vectors());
  ASSERT_EQ(a.num_cycles(), 50u);
  ASSERT_EQ(a.states.size(), 51u);
  EXPECT_TRUE(a.states[0].none());  // reset state
  for (std::size_t t = 0; t < a.num_cycles(); ++t) {
    EXPECT_TRUE(a.outputs[t] == b.outputs[t]);
    EXPECT_TRUE(a.states[t + 1] == b.states[t + 1]);
  }
  EXPECT_TRUE(a.final_state() == a.states.back());
}

TEST(GoldenSlotTraceTest, MatchesGoldenTraceProjections) {
  const Circuit c = circuits::build_by_name("b03_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 9);
  const auto kernel = compile_kernel(c);
  const GoldenSlotTrace slots = capture_golden_slots(*kernel, tb.vectors());
  const GoldenTrace golden = capture_golden(c, tb.vectors());

  ASSERT_EQ(slots.num_cycles(), tb.num_cycles());
  ASSERT_EQ(slots.num_slots, c.node_count());
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    // Output slots must equal the golden outputs of cycle t, DFF slots the
    // golden state at the start of cycle t, input slots the stimulus.
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      EXPECT_EQ(slots.at(t).get(c.outputs()[o].driver),
                golden.outputs[t].get(o));
    }
    for (std::size_t i = 0; i < c.num_dffs(); ++i) {
      EXPECT_EQ(slots.at(t).get(c.dffs()[i]), golden.states[t].get(i));
    }
    for (std::size_t i = 0; i < c.num_inputs(); ++i) {
      EXPECT_EQ(slots.at(t).get(c.inputs()[i]), tb.vector(t).get(i));
    }
  }
}

}  // namespace
}  // namespace femu
