// Stuck-at fault grading through the generic descriptor path: parity-aware
// fanout-free collapse (reused from SetSites), the every-cycle force
// overlay (op-tagged AND/OR masks), test-pattern classification semantics
// (no convergence retirement; undetected faults map latent/silent by the
// final state), the four-model API and b14's coverage band. Agreement with
// the serial reference across lane widths and thread counts is the
// differential harness's job (test_campaign_diff.cpp).
//
// Suites named *Slow* are split into the `slow` ctest label by CMake; the
// rest run under `tier1`.

#include <gtest/gtest.h>

#include <map>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "circuits/registry.h"
#include "common/error.h"
#include "fault/fault_list.h"
#include "fault/model_traits.h"
#include "fault/parallel_faultsim.h"
#include "fault/stuckat_model.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig stuckat_config(LaneWidth lanes = LaneWidth::k512,
                              unsigned threads = 1) {
  return {SimBackend::kCompiled, lanes, threads};
}

// ---- descriptor surface ----------------------------------------------------

TEST(StuckAtTraitsTest, DescriptorFlagsAndNames) {
  using Traits = FaultModelTraits<FaultModel::kStuckAt>;
  EXPECT_TRUE(Traits::kUsesOverlay);
  EXPECT_TRUE(Traits::kOverlayEveryCycle);
  EXPECT_FALSE(Traits::kRetireOnConvergence);
  EXPECT_TRUE(Traits::kSiteKeyed);
  EXPECT_EQ(fault_model_name(FaultModel::kStuckAt), "stuckat");
  EXPECT_STREQ(fault_model_descriptor(FaultModel::kStuckAt),
               "stuckat:overlay-force");
  EXPECT_STREQ(overlay_op_name(fault_model_overlay_op(FaultModel::kStuckAt)),
               "and-or");
  // Every fault "injects" at cycle 0 — the permanent-fault schedule key.
  EXPECT_EQ(Traits::cycle(StuckAtFault{3, true}), 0u);
}

TEST(StuckAtTraitsTest, OverlayForceMasksImplementAndOr) {
  // The op-tagged overlay lowering: stuck-at-0 is an AND with ~m (keep
  // clears the lane, flip leaves it 0), stuck-at-1 an OR (keep clears,
  // flip sets). Check through the masked-update identity on u64 words.
  const std::uint64_t lane = LaneTraits<std::uint64_t>::lane_bit(5);
  const auto sa0 = CompiledKernel::overlay_force<std::uint64_t>(7, lane,
                                                                false);
  const auto sa1 = CompiledKernel::overlay_force<std::uint64_t>(7, lane,
                                                                true);
  const auto set = CompiledKernel::overlay_xor<std::uint64_t>(7, lane);
  const std::uint64_t value = 0xdeadbeefdeadbeefULL;
  EXPECT_EQ((value & sa0.keep) ^ sa0.flip, value & ~lane);
  EXPECT_EQ((value & sa1.keep) ^ sa1.flip, value | lane);
  EXPECT_EQ((value & set.keep) ^ set.flip, value ^ lane);
}

// ---- parity-aware collapse -------------------------------------------------

TEST(StuckAtCollapseTest, NotChainTranslatesPolarity) {
  // a -> NOT n1 -> NOT n2 -> BUF n3 -> DFF: n1 and n2 collapse onto n3 (all
  // single-reader inversion-transparent links); the parity from n1 to n3 is
  // odd (one NOT between them: n2's cell), from n2 even... the chain parity
  // counts the inverting *consumers* on the way to the representative.
  Circuit c("not_chain");
  const NodeId a = c.add_input("a");
  const NodeId r = c.add_dff("r");
  const NodeId n1 = c.add_not(a);
  const NodeId n2 = c.add_not(n1);
  const NodeId n3 = c.add_buf(n2);
  c.connect_dff(r, n3);
  c.add_output("o", r);
  const SetSites sites(c);
  EXPECT_EQ(sites.representative(n1), n3);
  EXPECT_EQ(sites.representative(n2), n3);
  EXPECT_EQ(sites.representative(n3), n3);
  // n2's sole reader n3 is a BUF, n1's sole reader n2 a NOT: parity(n2) =
  // parity through BUF = even; parity(n1) = NOT then n2's parity = odd.
  EXPECT_FALSE(sites.rep_inverted(n3));
  EXPECT_FALSE(sites.rep_inverted(n2));
  EXPECT_TRUE(sites.rep_inverted(n1));
}

TEST(StuckAtCollapseTest, CollapsedClassesGradeIdenticallyUnderParity) {
  // The collapse soundness property for a polarity-carrying model, checked
  // behaviourally: stuck-at-v at any site must grade exactly like
  // stuck-at-(v ^ parity) at its representative (the serial reference
  // knows nothing about the collapse).
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 3;
  spec.num_dffs = 10;
  spec.num_gates = 120;
  const Circuit c = circuits::build_random(spec, 21);
  const Testbench tb = random_testbench(spec.num_inputs, 20, 22);
  const SetSites sites(c);
  const auto faults = complete_stuckat_fault_list(sites, /*collapsed=*/false);
  SerialStuckAtSimulator serial(c, tb);
  const StuckAtCampaignResult result = serial.run(faults);
  std::map<std::pair<NodeId, bool>, FaultOutcome> rep_outcome;
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    const StuckAtFault& f = result.faults[i];
    const auto key = std::pair{sites.representative(f.node),
                               f.stuck_one != sites.rep_inverted(f.node)};
    const auto [it, inserted] = rep_outcome.emplace(key, result.outcomes[i]);
    EXPECT_EQ(it->second, result.outcomes[i])
        << "site " << f.node << " " << stuckat_polarity_name(f.stuck_one)
        << " and representative " << it->first.first << " "
        << stuckat_polarity_name(it->first.second)
        << " grade differently";
  }
}

TEST(StuckAtCollapseTest, ExpansionMatchesUncollapsedCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 4;
  spec.num_outputs = 3;
  spec.num_dffs = 8;
  spec.num_gates = 90;
  const Circuit c = circuits::build_random(spec, 31);
  const Testbench tb = random_testbench(spec.num_inputs, 16, 32);
  const SetSites sites(c);

  ParallelFaultSimulator sim(c, tb, stuckat_config());
  const auto rep_faults = complete_stuckat_fault_list(sites);
  const StuckAtCampaignResult expanded =
      expand_collapsed_stuckat_result(sites, sim.run_stuckat(rep_faults));

  const auto all_faults = complete_stuckat_fault_list(sites,
                                                      /*collapsed=*/false);
  const StuckAtCampaignResult full = sim.run_stuckat(all_faults);

  ASSERT_EQ(expanded.faults.size(), full.faults.size());
  std::map<std::pair<NodeId, bool>, FaultOutcome> by_fault;
  for (std::size_t i = 0; i < expanded.faults.size(); ++i) {
    by_fault[{expanded.faults[i].node, expanded.faults[i].stuck_one}] =
        expanded.outcomes[i];
  }
  for (std::size_t i = 0; i < full.faults.size(); ++i) {
    const auto it =
        by_fault.find({full.faults[i].node, full.faults[i].stuck_one});
    ASSERT_NE(it, by_fault.end());
    EXPECT_EQ(it->second, full.outcomes[i]);
  }
  EXPECT_EQ(expanded.counts.failure, full.counts.failure);
  EXPECT_EQ(expanded.counts.latent, full.counts.latent);
  EXPECT_EQ(expanded.counts.silent, full.counts.silent);
}

// ---- classification semantics ----------------------------------------------

TEST(StuckAtSemanticsTest, UnexcitedFaultIsSilentAndRedundantGateMasked) {
  // A gate stuck at a value its golden output always has is never excited
  // -> silent; a gate whose only reader ANDs with constant 0 is always
  // masked -> silent for both polarities.
  Circuit c("stuckat_edge");
  const NodeId a = c.add_input("a");
  const NodeId one = c.add_const(true);
  const NodeId zero = c.add_const(false);
  const NodeId always1 = c.add_or(a, one);    // golden constant 1
  c.add_output("o1", always1);
  const NodeId masked = c.add_xor(a, a);      // only reader ANDs with 0
  const NodeId gate0 = c.add_and(masked, zero);
  c.add_output("o2", gate0);
  const Testbench tb = random_testbench(c.num_inputs(), 12, 3);

  ParallelFaultSimulator sim(c, tb, stuckat_config());
  const std::vector<StuckAtFault> faults = {
      {always1, true},   // forcing 1 onto a constant-1 output: unexcited
      {masked, false},   // masked by the AND-0 reader
      {masked, true},
      {always1, false},  // forcing 0 onto a PO driver: detected cycle 0
  };
  const StuckAtCampaignResult result = sim.run_stuckat(faults);
  EXPECT_EQ(result.outcomes,
            SerialStuckAtSimulator(c, tb).run(faults).outcomes);
  EXPECT_EQ(result.outcomes[0].cls, FaultClass::kSilent);
  EXPECT_EQ(result.outcomes[1].cls, FaultClass::kSilent);
  EXPECT_EQ(result.outcomes[2].cls, FaultClass::kSilent);
  EXPECT_EQ(result.outcomes[3].cls, FaultClass::kFailure);
  EXPECT_EQ(result.outcomes[3].detect_cycle, 0u);
  // Silent permanent faults never "converge" — the fault does not go away.
  EXPECT_EQ(result.outcomes[0].converge_cycle, kNoCycle);
  EXPECT_DOUBLE_EQ(result.fault_coverage(), 0.25);
}

TEST(StuckAtSemanticsTest, ReExcitationIsNotLostToConvergence) {
  // A stuck-at whose effect is latched, flushed back to golden, and only
  // later observed must still grade failure: state re-convergence must NOT
  // retire a permanent fault (the transient models' early-exit rule would
  // misgrade this circuit). sel gates the faulty value into the output
  // path only when high; between excitations the machine state returns to
  // golden whenever sel-driven history flushes.
  Circuit c("reexcite");
  const NodeId sel = c.add_input("sel");
  const NodeId x = c.add_input("x");
  const NodeId r = c.add_dff("r");
  const NodeId vict = c.add_and(x, x);        // victim site (value == x)
  const NodeId gated = c.add_and(vict, sel);  // excite only when sel
  c.connect_dff(r, gated);
  c.add_output("o", r);
  // Hand-built stimulus: sel low for a stretch (state golden regardless of
  // the fault), then sel high with x=1 (stuck-at-0 on vict latches a wrong
  // 0... golden latches 1) -> observed one cycle later.
  Testbench tb(2);
  const auto vec = [](bool sel_v, bool x_v) {
    BitVec v(2);
    v.set(0, sel_v);
    v.set(1, x_v);
    return v;
  };
  for (int i = 0; i < 4; ++i) tb.add_vector(vec(false, true));
  tb.add_vector(vec(true, true));   // excitation latches at edge
  tb.add_vector(vec(false, true));  // wrong r observed at the PO
  tb.add_vector(vec(false, true));

  const std::vector<StuckAtFault> faults = {{vict, false}};
  ParallelFaultSimulator sim(c, tb, stuckat_config());
  const StuckAtCampaignResult result = sim.run_stuckat(faults);
  EXPECT_EQ(result.outcomes,
            SerialStuckAtSimulator(c, tb).run(faults).outcomes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].cls, FaultClass::kFailure);
  EXPECT_EQ(result.outcomes[0].detect_cycle, 5u);
}

TEST(StuckAtSemanticsTest, RequiresCompiledBackend) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 8, 1);
  CampaignConfig config{SimBackend::kInterpreted, LaneWidth::k64, 1};
  ParallelFaultSimulator sim(c, tb, config);
  const SetSites sites(c);
  const auto faults = complete_stuckat_fault_list(sites);
  EXPECT_THROW((void)sim.run_stuckat(faults), Error);
}

// ---- unified API -----------------------------------------------------------

TEST(UnifiedCampaignTest, OneConfigDrivesAllFourModels) {
  // One simulator instance, one config: SEU, MBU, SET and stuck-at
  // campaigns all run through the same descriptor-instantiated engine and
  // report through the same outcome shape.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 17);
  ParallelFaultSimulator sim(c, tb, stuckat_config(LaneWidth::k64, 2));

  const auto seu = sim.run(complete_fault_list(c.num_dffs(), 8));
  EXPECT_EQ(seu.counts().total(), c.num_dffs() * 8);

  const auto mbu = sim.run_mbu(adjacent_pair_fault_list(c.num_dffs(), 8));
  EXPECT_EQ(mbu.counts.total(), (c.num_dffs() - 1) * 8);

  const SetSites sites(c);
  const auto set = sim.run_set(complete_set_fault_list(sites, 8));
  EXPECT_EQ(set.counts.total(), sites.num_representatives() * 8);

  const auto stuckat = sim.run_stuckat(complete_stuckat_fault_list(sites));
  EXPECT_EQ(stuckat.counts.total(), sites.num_representatives() * 2);
}

// ---- b14 (slow label) ------------------------------------------------------

TEST(StuckAtCampaignSlowTest, B14CompleteListCoverageBand) {
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 60, 2005);
  const SetSites sites(c);
  ParallelFaultSimulator sim(c, tb, stuckat_config());
  const StuckAtCampaignResult result =
      sim.run_stuckat(complete_stuckat_fault_list(sites));
  // 60 purely random vectors reach only a modest slice of b14's control
  // logic (~26% coverage) — the floor guards against broken
  // excitation/observation, not against weak patterns.
  EXPECT_GT(result.fault_coverage(), 0.15);
  EXPECT_LT(result.fault_coverage(), 0.9);
}

}  // namespace
}  // namespace femu
