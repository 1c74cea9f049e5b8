// Parallel campaign construction must be a pure latency knob: the unified
// golden capture has to produce results bit-identical to its serial form
// for any thread count. These tests pin that contract on {1, 4, 8} build
// threads, and pin the unified capture against the two separate passes it
// replaced.

#include <gtest/gtest.h>

#include <vector>

#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "sim/golden_slots.h"
#include "stim/generate.h"

namespace femu {
namespace {

constexpr unsigned kThreadCounts[] = {1, 4, 8};

std::vector<Circuit> test_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(circuits::build_pipeline(4, 8));    // tiny: ranges clamp
  circuits.push_back(circuits::build_pipeline(8, 32));   // ~1.5k nodes
  return circuits;
}

// ---- unified golden capture ------------------------------------------------

TEST(ParallelBuild, UnifiedCaptureMatchesSeparatePasses) {
  for (const Circuit& circuit : test_circuits()) {
    const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
    const auto kernel = compile_kernel(circuit);

    // The references the unified walk replaced: the interpreter's golden
    // trace (also what the interpreted backend still uses) and the
    // dedicated slot-trace pass.
    const GoldenTrace ref_trace = capture_golden(circuit, tb.vectors());
    const GoldenSlotTrace ref_slots =
        capture_golden_slots(*kernel, tb.vectors());

    const GoldenCapture cap =
        capture_golden_unified(*kernel, tb.vectors(), 1, true);
    EXPECT_EQ(cap.trace.states, ref_trace.states) << circuit.name();
    EXPECT_EQ(cap.trace.outputs, ref_trace.outputs) << circuit.name();
    EXPECT_EQ(cap.slots.num_slots, ref_slots.num_slots);
    EXPECT_EQ(cap.slots.cycles, ref_slots.cycles) << circuit.name();
  }
}

TEST(ParallelBuild, UnifiedCaptureBitIdenticalAcrossThreadCounts) {
  for (const Circuit& circuit : test_circuits()) {
    const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
    const auto kernel = compile_kernel(circuit);
    const GoldenCapture serial =
        capture_golden_unified(*kernel, tb.vectors(), 1, true);
    for (const unsigned threads : kThreadCounts) {
      const GoldenCapture parallel =
          capture_golden_unified(*kernel, tb.vectors(), threads, true);
      EXPECT_EQ(parallel.trace.states, serial.trace.states);
      EXPECT_EQ(parallel.trace.outputs, serial.trace.outputs);
      EXPECT_EQ(parallel.slots.cycles, serial.slots.cycles)
          << circuit.name() << " threads " << threads;
    }
  }
}

// ---- end-to-end: construction thread count never changes the grading -------

TEST(ParallelBuild, ClassificationsInvariantAcrossBuildThreads) {
  const Circuit circuit = circuits::build_pipeline(8, 32);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());

  ClassCounts reference;
  bool have_reference = false;
  for (const unsigned threads : kThreadCounts) {
    CampaignConfig config;
    config.num_threads = threads;
    ParallelFaultSimulator sim(circuit, tb, config);
    const ClassCounts counts = sim.run(faults).counts();
    if (!have_reference) {
      reference = counts;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(counts.failure, reference.failure) << "threads " << threads;
    EXPECT_EQ(counts.latent, reference.latent) << "threads " << threads;
    EXPECT_EQ(counts.silent, reference.silent) << "threads " << threads;
  }
}

}  // namespace
}  // namespace femu
