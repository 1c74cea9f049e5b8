// SEU campaign edge cases on the compiled engine — the golden slot trace,
// scheduling permutations, duplicates, fast-forward and threaded
// determinism — always cross-checked against the interpreted reference
// across the engine matrix (lanes {64, 512} x threads {1, 4}).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "circuits/small.h"
#include "engine_matrix.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "sim/golden_slots.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig compiled_config(unsigned threads = 1) {
  return {SimBackend::kCompiled, LaneWidth::k512, threads};
}

CampaignConfig interp_config() {
  return {SimBackend::kInterpreted, LaneWidth::k64, 1};
}

void expect_same_outcomes(const CampaignResult& a, const CampaignResult& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.faults()[i], b.faults()[i]) << label << " fault order @" << i;
    ASSERT_EQ(a.outcomes()[i], b.outcomes()[i])
        << label << " fault (ff=" << a.faults()[i].ff_index
        << ", c=" << a.faults()[i].cycle << ")";
  }
}

// Grades `faults` under the interpreted reference and every compiled
// engine configuration and requires identical per-fault outcomes in caller
// order.
void cross_check(const Circuit& circuit, const Testbench& tb,
                 std::span<const Fault> faults, const char* label) {
  ParallelFaultSimulator interp(circuit, tb, interp_config());
  const CampaignResult ref = interp.run(faults);
  for (const CampaignConfig& config : compiled_engine_matrix()) {
    ParallelFaultSimulator sim(circuit, tb, config);
    SCOPED_TRACE(engine_label(config));
    expect_same_outcomes(ref, sim.run(faults), label);
  }
}

// ---- golden slot trace -----------------------------------------------------

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

// ---- campaign edge cases ---------------------------------------------------

TEST(SeuCampaignEdgeTest, EmptyFaultList) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 16, 3);
  for (const CampaignConfig& config :
       {compiled_config(), interp_config()}) {
    ParallelFaultSimulator sim(c, tb, config);
    const CampaignResult result = sim.run({});
    EXPECT_EQ(result.size(), 0u);
    EXPECT_EQ(result.counts().total(), 0u);
  }
}

TEST(SeuCampaignEdgeTest, InterpretedDefaultConfigIgnoresLanes) {
  // The default config asks for 512 lanes; the interpreted oracle has one
  // width (64) and must accept the default rather than reject it, and grade
  // exactly like the compiled default.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 4);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  CampaignConfig interp_default;
  interp_default.backend = SimBackend::kInterpreted;
  ASSERT_EQ(interp_default.lanes, LaneWidth::k512);
  ParallelFaultSimulator interp(c, tb, interp_default);
  ParallelFaultSimulator compiled(c, tb);
  expect_same_outcomes(compiled.run(faults), interp.run(faults),
                       "interpreted-default");
  EXPECT_EQ(interp.last_run_group_widths().g512, 0u);
  EXPECT_EQ(interp.last_run_group_widths().g64,
            (faults.size() + 63) / 64);
  EXPECT_EQ(compiled.last_run_group_widths().g512,
            (faults.size() + 511) / 512);
}

TEST(SeuCampaignEdgeTest, AllFaultsAtLastTestbenchCycle) {
  // Injection at the final cycle: one eval/step, then the testbench ends —
  // exercises the "no tail after injection" classification (failure at the
  // last outputs, silent only if state re-converges immediately, else
  // latent).
  const Circuit c = circuits::build_by_name("b03_like");
  const Testbench tb = random_testbench(c.num_inputs(), 20, 7);
  std::vector<Fault> faults;
  for (std::uint32_t ff = 0; ff < c.num_dffs(); ++ff) {
    faults.push_back({ff, static_cast<std::uint32_t>(tb.num_cycles() - 1)});
  }
  cross_check(c, tb, faults, "last-cycle");
}

TEST(SeuCampaignEdgeTest, DuplicateFaultsInOneGroup) {
  // The same (ff, cycle) several times in one lane group: lanes are
  // independent bit positions, so duplicates must grade identically.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 11);
  std::vector<Fault> faults;
  for (int rep = 0; rep < 5; ++rep) {
    faults.push_back({1, 3});
    faults.push_back({2, 3});
    faults.push_back({1, 7});
  }
  cross_check(c, tb, faults, "duplicates");
  ParallelFaultSimulator sim(c, tb, compiled_config());
  const CampaignResult result = sim.run(faults);
  for (std::size_t i = 3; i < faults.size(); ++i) {
    EXPECT_EQ(result.outcomes()[i], result.outcomes()[i % 3])
        << "duplicate fault graded differently";
  }
}

TEST(SeuCampaignEdgeTest, FastForwardLandsOnFinalCycle) {
  // Two injection waves: the first classifies quickly (every FF flipped at
  // cycle 1), then the group fast-forwards straight to the final cycle —
  // the jump target is num_cycles - 1, so the loop increment lands exactly
  // on num_cycles and must terminate cleanly.
  const Circuit c = circuits::build_shift_register(8);
  const Testbench tb = zero_testbench(1, 40);
  std::vector<Fault> faults;
  for (std::uint32_t ff = 0; ff < c.num_dffs(); ++ff) {
    faults.push_back({ff, 1});
    faults.push_back({ff, static_cast<std::uint32_t>(tb.num_cycles() - 1)});
  }
  cross_check(c, tb, faults, "fast-forward-to-end");
}

TEST(SeuCampaignEdgeTest, ShuffledCallerOrderStillAlignsOutcomes) {
  // The scheduler permutes internally; outcomes must scatter back to the
  // caller's (shuffled) order for every schedule.
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 20;
  spec.num_gates = 250;
  const Circuit c = circuits::build_random(spec, 7);
  const Testbench tb = random_testbench(spec.num_inputs, 32, 13);
  auto faults = sample_fault_list(spec.num_dffs, tb.num_cycles(), 300, 99);
  std::mt19937_64 rng(123);
  std::shuffle(faults.begin(), faults.end(), rng);
  cross_check(c, tb, faults, "shuffled");
}

// ---- cross-validation at scale ---------------------------------------------

class SeuCampaignAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SeuCampaignAgreement, RandomCircuitCompleteCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 300;
  const Circuit c = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 40, GetParam() + 5);
  const auto faults = complete_fault_list(spec.num_dffs, tb.num_cycles());
  cross_check(c, tb, faults, "complete-campaign");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeuCampaignAgreement,
                         ::testing::Range<std::uint64_t>(0, 5));

// ---- threaded determinism ------------------------------------------------

TEST(SeuCampaignShardingTest, ThreadedIdenticalToSingleThreaded) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 40, 5);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());

  ParallelFaultSimulator single(c, tb, compiled_config(1));
  const CampaignResult base = single.run(faults);

  for (const unsigned threads : {2u, 4u, 7u}) {
    ParallelFaultSimulator sharded(c, tb, compiled_config(threads));
    expect_same_outcomes(base, sharded.run(faults), "threaded");
    EXPECT_EQ(single.last_run_eval_cycles(), sharded.last_run_eval_cycles());
    EXPECT_EQ(single.last_run_eval_instrs(), sharded.last_run_eval_instrs());
  }
}

}  // namespace
}  // namespace femu
