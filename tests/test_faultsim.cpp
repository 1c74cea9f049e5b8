// Fault-simulation engines: hand-checked classification semantics and
// input validation. Serial/parallel agreement and the outcome invariants
// are the differential harness's job (test_campaign_diff.cpp).

#include <gtest/gtest.h>

#include "common/error.h"

#include "circuits/generators.h"
#include "circuits/small.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "stim/generate.h"

namespace femu {
namespace {

// A 4-bit shift register with the output tapped at the end makes every
// classification hand-checkable.
TEST(FaultSimSemantics, ShiftRegisterByHand) {
  const Circuit c = circuits::build_shift_register(4);
  const Testbench tb = zero_testbench(1, 8);
  ParallelFaultSimulator sim(c, tb);

  // FF3 feeds the output: flipping it at cycle 2 shows immediately.
  {
    const Fault fault{3, 2};
    const auto result = sim.run(std::span<const Fault>(&fault, 1));
    EXPECT_EQ(result.outcomes()[0].cls, FaultClass::kFailure);
    EXPECT_EQ(result.outcomes()[0].detect_cycle, 2u);
  }
  // FF0 at cycle 2: the bubble must shift 3 times to reach the output ->
  // detected at cycle 5.
  {
    const Fault fault{0, 2};
    const auto result = sim.run(std::span<const Fault>(&fault, 1));
    EXPECT_EQ(result.outcomes()[0].cls, FaultClass::kFailure);
    EXPECT_EQ(result.outcomes()[0].detect_cycle, 5u);
  }
  // FF0 at cycle 7 (the last): the flip sits in state(7); output at cycle 7
  // reads FF3 (still golden) -> no failure; final state differs -> latent.
  {
    const Fault fault{0, 7};
    const auto result = sim.run(std::span<const Fault>(&fault, 1));
    EXPECT_EQ(result.outcomes()[0].cls, FaultClass::kLatent);
  }
}

TEST(FaultSimSemantics, SilentWhenEffectShiftsOutUnobserved) {
  // Shift register whose output taps only FF1: flips in FF2/FF3 wash out of
  // the register without ever reaching the observed tap... they *do* traverse
  // FF3. Build instead: output taps FF0 only -> flips in later FFs shift out
  // the far end unobserved and the state re-converges: silent.
  Circuit c("tap0");
  const NodeId sin = c.add_input("sin");
  const NodeId f0 = c.add_dff("f0");
  const NodeId f1 = c.add_dff("f1");
  const NodeId f2 = c.add_dff("f2");
  c.connect_dff(f0, sin);
  c.connect_dff(f1, f0);
  c.connect_dff(f2, f1);
  c.add_output("y", f0);  // only the first stage is observable

  const Testbench tb = zero_testbench(1, 10);
  ParallelFaultSimulator sim(c, tb);
  const Fault fault{1, 2};  // hits f1; drains via f2; never touches y
  const auto result = sim.run(std::span<const Fault>(&fault, 1));
  EXPECT_EQ(result.outcomes()[0].cls, FaultClass::kSilent);
  // state(2) flipped f1; f1 propagates to f2 at state(3); gone by state(5):
  // f1 cleared at 3, f2 cleared at 4 -> converged at cycle 4.
  EXPECT_EQ(result.outcomes()[0].converge_cycle, 4u);
}

TEST(FaultSimSemantics, InjectionAtCycleZeroFlipsResetState) {
  const Circuit c = circuits::build_shift_register(2);
  const Testbench tb = zero_testbench(1, 4);
  ParallelFaultSimulator sim(c, tb);
  const Fault fault{1, 0};  // FF1 drives the output: mismatch at cycle 0
  const auto result = sim.run(std::span<const Fault>(&fault, 1));
  EXPECT_EQ(result.outcomes()[0].cls, FaultClass::kFailure);
  EXPECT_EQ(result.outcomes()[0].detect_cycle, 0u);
}

// ---- engine mechanics ----

TEST(ParallelFaultSimTest, RejectsOutOfRangeFaults) {
  const Circuit circuit = circuits::build_b01_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 10, 1);
  ParallelFaultSimulator sim(circuit, tb);
  const Fault bad_cycle{0, 10};
  EXPECT_THROW((void)sim.run(std::span<const Fault>(&bad_cycle, 1)), Error);
  const Fault bad_ff{5, 0};
  EXPECT_THROW((void)sim.run(std::span<const Fault>(&bad_ff, 1)), Error);
}

TEST(SerialFaultSimTest, TracksWallTime) {
  const Circuit circuit = circuits::build_b01_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 16, 1);
  SerialFaultSimulator sim(circuit, tb);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());
  (void)sim.run(faults);
  EXPECT_GE(sim.last_run_seconds(), 0.0);
}

TEST(ParallelFaultSimTest, MismatchedTestbenchWidthThrows) {
  const Circuit circuit = circuits::build_b01_like();
  const Testbench tb = random_testbench(7, 10, 1);
  EXPECT_THROW(ParallelFaultSimulator(circuit, tb), Error);
}

}  // namespace
}  // namespace femu
