// Gate-level SET fault grading: site enumeration and fanout-free collapse
// (class members grade identically, expansion matches the uncollapsed
// campaign), the silent pins of dead and masked gates, and the compiled-only
// rule. Engine-vs-SerialSetSimulator agreement is the differential
// harness's job (test_campaign_diff.cpp); the *Slow* suite runs its b14 SET
// cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "campaign_diff.h"
#include "circuits/generators.h"
#include "circuits/registry.h"
#include "common/error.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig set_config() {
  return {SimBackend::kCompiled, LaneWidth::k512, 1};
}

// ---- site enumeration and collapse ----------------------------------------

TEST(SetSitesTest, EnumeratesEveryCombGate) {
  const Circuit c = circuits::build_by_name("b06_like");
  const SetSites sites(c);
  EXPECT_EQ(sites.num_sites(), c.num_gates());
  for (const NodeId node : sites.sites()) {
    EXPECT_TRUE(is_comb_cell(c.type(node)));
  }
  // Representatives partition the sites: every site maps to exactly one
  // rep, every rep's class members are sites, and the classes tile.
  std::size_t total = 0;
  for (const NodeId rep : sites.representatives()) {
    const auto members = sites.class_members(rep);
    EXPECT_TRUE(std::find(members.begin(), members.end(), rep) !=
                members.end());
    for (const NodeId m : members) {
      EXPECT_EQ(sites.representative(m), rep);
    }
    total += members.size();
  }
  EXPECT_EQ(total, sites.num_sites());
}

TEST(SetSitesTest, BufNotChainCollapsesOntoItsTail) {
  const Circuit c = diff::build_set_edge_circuit();
  const SetSites sites(c);
  // chain2 = NOT(chain1 = BUF(chain0 = XOR(a, r))); chain0 and chain1 are
  // read exactly once, by an inversion-transparent unary gate, and drive
  // neither a PO nor a DFF — all three share one representative.
  const NodeId chain2 = c.outputs()[0].driver;
  ASSERT_EQ(c.type(chain2), CellType::kNot);
  const NodeId chain1 = c.fanins(chain2)[0];
  const NodeId xor_head = c.fanins(chain1)[0];
  EXPECT_EQ(sites.representative(xor_head), chain2);
  EXPECT_EQ(sites.representative(chain1), chain2);
  EXPECT_EQ(sites.representative(chain2), chain2);
  EXPECT_EQ(sites.class_members(chain2).size(), 3u);
  // The PO-driving tail and the FF-feeding gate stay their own reps.
  const NodeId live = c.fanins(c.dffs()[0])[0];
  EXPECT_EQ(sites.representative(live), live);
}

TEST(SetSitesTest, CollapsedClassesGradeIdentically) {
  // The collapse soundness property, checked behaviourally: on a random
  // circuit, every member of an equivalence class must grade identically
  // at every cycle (the serial reference knows nothing about the collapse).
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 3;
  spec.num_dffs = 10;
  spec.num_gates = 120;
  const Circuit c = circuits::build_random(spec, 21);
  const Testbench tb = random_testbench(spec.num_inputs, 20, 22);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, tb.num_cycles(),
                                              /*collapsed=*/false);
  SerialSetSimulator serial(c, tb);
  const SetCampaignResult result = serial.run(faults);
  std::map<std::pair<NodeId, std::uint32_t>, FaultOutcome> rep_outcome;
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    const auto key = std::pair{sites.representative(result.faults[i].node),
                               result.faults[i].cycle};
    const auto [it, inserted] = rep_outcome.emplace(key, result.outcomes[i]);
    EXPECT_EQ(it->second, result.outcomes[i])
        << "site " << result.faults[i].node << " and representative "
        << it->first.first << " grade differently at cycle "
        << result.faults[i].cycle;
  }
}

TEST(SetSitesTest, ExpansionMatchesUncollapsedCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 4;
  spec.num_outputs = 3;
  spec.num_dffs = 8;
  spec.num_gates = 90;
  const Circuit c = circuits::build_random(spec, 31);
  const Testbench tb = random_testbench(spec.num_inputs, 16, 32);
  const SetSites sites(c);

  ParallelFaultSimulator sim(c, tb, set_config());
  const auto rep_faults = complete_set_fault_list(sites, tb.num_cycles());
  const SetCampaignResult expanded =
      expand_collapsed_result(sites, sim.run_set(rep_faults));

  const auto all_faults = complete_set_fault_list(sites, tb.num_cycles(),
                                                  /*collapsed=*/false);
  const SetCampaignResult full = sim.run_set(all_faults);

  ASSERT_EQ(expanded.faults.size(), full.faults.size());
  std::map<std::pair<NodeId, std::uint32_t>, FaultOutcome> by_fault;
  for (std::size_t i = 0; i < expanded.faults.size(); ++i) {
    by_fault[{expanded.faults[i].node, expanded.faults[i].cycle}] =
        expanded.outcomes[i];
  }
  for (std::size_t i = 0; i < full.faults.size(); ++i) {
    const auto it =
        by_fault.find({full.faults[i].node, full.faults[i].cycle});
    ASSERT_NE(it, by_fault.end());
    EXPECT_EQ(it->second, full.outcomes[i]);
  }
  EXPECT_EQ(expanded.counts.failure, full.counts.failure);
  EXPECT_EQ(expanded.counts.latent, full.counts.latent);
  EXPECT_EQ(expanded.counts.silent, full.counts.silent);
}

// ---- edge cases ------------------------------------------------------------

TEST(SetCampaignEdgeTest, DeadGateAndMaskedGateAreSilent) {
  const Circuit c = diff::build_set_edge_circuit();
  const Testbench tb = random_testbench(c.num_inputs(), 12, 3);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, tb.num_cycles(),
                                              /*collapsed=*/false);
  // The dead gate (no reader) and the logically masked gate (sole reader
  // ANDs with constant 0) must grade silent with convergence right after
  // injection, at every cycle.
  const NodeId masked_gate = c.fanins(c.outputs()[1].driver)[0];
  NodeId dead_gate = kInvalidNode;
  for (const NodeId s : sites.sites()) {
    bool read = false;
    for (NodeId id = 0; id < c.node_count(); ++id) {
      for (const NodeId f : c.fanins(id)) read |= (f == s);
    }
    for (const auto& port : c.outputs()) read |= (port.driver == s);
    if (!read) dead_gate = s;
  }
  ASSERT_NE(dead_gate, kInvalidNode);

  ParallelFaultSimulator sim(c, tb, set_config());
  const SetCampaignResult result = sim.run_set(faults);
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    if (result.faults[i].node != dead_gate &&
        result.faults[i].node != masked_gate) {
      continue;
    }
    EXPECT_EQ(result.outcomes[i].cls, FaultClass::kSilent)
        << "node " << result.faults[i].node;
    EXPECT_EQ(result.outcomes[i].converge_cycle, result.faults[i].cycle + 1);
  }
}

// ---- unified API sanity ----------------------------------------------------

TEST(UnifiedCampaignTest, SetRequiresCompiledBackend) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 8, 1);
  CampaignConfig config{SimBackend::kInterpreted, LaneWidth::k64, 1};
  ParallelFaultSimulator sim(c, tb, config);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, 4);
  EXPECT_THROW((void)sim.run_set(faults), Error);
}

// ---- b14 (*Slow* suite) ----------------------------------------------------

TEST(SetCampaignSlowTest, B14SetCasesMatchSerialReference) {
  EXPECT_EQ(diff::run_b14_cases(2), "");
}

}  // namespace
}  // namespace femu
