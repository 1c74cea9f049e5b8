// Pulse-width / latching-window SET modeling: the discretised pulse-width
// attribute on SetFault, the deterministic per-FF setup-window draw
// (set_pulse_latches), and the statistical contract that latching
// probability tracks the pulse-width fraction. The engine's per-lane latch
// thinning is checked against the serial reference by the differential
// harness, whose SET cases carry mixed pulse widths (test_campaign_diff.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "stim/generate.h"

namespace femu {
namespace {

/// The latch-probe circuit: n independent input -> BUF -> DFF chains with
/// the DFF Q driving a primary output. A SET on chain i's BUF always flips
/// the D value (full excitation, no combinational masking, no transient
/// path to any PO), so the fault diverges at t+1 **iff** the pulse latches
/// into that one flip-flop — the campaign measures the latch draw directly.
Circuit build_latch_probe(std::size_t chains) {
  Circuit c("latch_probe");
  for (std::size_t i = 0; i < chains; ++i) {
    const NodeId x = c.add_input("x" + std::to_string(i));
    const NodeId r = c.add_dff("r" + std::to_string(i));
    const NodeId g = c.add_buf(x);
    c.connect_dff(r, g);
    c.add_output("o" + std::to_string(i), r);
  }
  return c;
}

// ---- attribute plumbing ----------------------------------------------------

TEST(PulseWidthTest, QuantisationRoundtripsAndFullWidthAlwaysLatches) {
  EXPECT_EQ(set_pulse_q(1.0), kSetPulseFull);
  EXPECT_EQ(set_pulse_q(0.0), 0u);
  EXPECT_EQ(set_pulse_q(0.5), 128u);
  EXPECT_DOUBLE_EQ(set_pulse_fraction(kSetPulseFull), 1.0);
  EXPECT_DOUBLE_EQ(set_pulse_fraction(64), 0.25);
  // Full width is the classic model: every (node, cycle, ff) latches, and
  // zero width never does.
  for (std::uint32_t probe = 0; probe < 500; ++probe) {
    EXPECT_TRUE(set_pulse_latches(probe * 7, probe * 13, probe % 31,
                                  kSetPulseFull));
    EXPECT_FALSE(set_pulse_latches(probe * 7, probe * 13, probe % 31, 0));
  }
  // Monotone in the width step: a window overlapped at q is overlapped at
  // every q' > q (the draw compares one hash against the threshold).
  for (std::uint32_t probe = 0; probe < 2000; ++probe) {
    const NodeId node = probe * 11 + 3;
    const std::uint32_t cycle = probe % 97;
    const std::uint32_t ff = probe % 23;
    bool prev = false;
    for (const std::uint16_t q : {std::uint16_t{32}, std::uint16_t{128},
                                  std::uint16_t{224}}) {
      const bool now = set_pulse_latches(node, cycle, ff, q);
      EXPECT_TRUE(now || !prev) << "latch decision not monotone in q";
      prev = now;
    }
  }
}

TEST(PulseWidthTest, FullWidthListsMatchClassicLists) {
  const Circuit c = circuits::build_by_name("b06_like");
  const SetSites sites(c);
  EXPECT_EQ(complete_set_fault_list(sites, 10),
            complete_set_fault_list(sites, 10, true, kSetPulseFull));
  EXPECT_EQ(sample_set_fault_list(sites, 10, 20, 5),
            sample_set_fault_list(sites, 10, 20, 5, kSetPulseFull));
}

// ---- statistical contract --------------------------------------------------

TEST(PulseWidthTest, LatchDrawFrequencyTracksWidthOnRandomCircuit) {
  // Over a random circuit's (site, cycle, ff) space the draw must hit at
  // the pulse-width fraction. 120 gates x 24 cycles x 12 FFs ≈ 34.5k
  // triples per width: a 0.02 tolerance is > 5 sigma at every tested q.
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 12;
  spec.num_gates = 120;
  const Circuit c = circuits::build_random(spec, 77);
  const SetSites sites(c);
  for (const std::uint16_t q :
       {std::uint16_t{32}, std::uint16_t{128}, std::uint16_t{224}}) {
    std::size_t latched = 0;
    std::size_t total = 0;
    for (const NodeId site : sites.sites()) {
      for (std::uint32_t cycle = 0; cycle < 24; ++cycle) {
        for (std::uint32_t ff = 0; ff < spec.num_dffs; ++ff) {
          latched += set_pulse_latches(site, cycle, ff, q) ? 1 : 0;
          ++total;
        }
      }
    }
    const double fraction =
        static_cast<double>(latched) / static_cast<double>(total);
    EXPECT_NEAR(fraction, set_pulse_fraction(q), 0.02)
        << "latch frequency off at q=" << q;
  }
}

TEST(PulseWidthTest, LatchingProbabilityMatchesWidthOnProbeCircuit) {
  // On the latch-probe circuit a SET diverges at t+1 exactly when its pulse
  // latches into the chain's single flip-flop, so the campaign-level
  // non-silent fraction IS the latching probability. 128 chains x 40
  // cycles = 5120 Bernoulli trials per width; 0.04 > 5 sigma.
  const Circuit c = build_latch_probe(128);
  const Testbench tb = random_testbench(c.num_inputs(), 40, 123);
  const SetSites sites(c);
  ParallelFaultSimulator sim(
      c, tb,
      CampaignConfig{SimBackend::kCompiled, LaneWidth::k512, 2});
  for (const std::uint16_t q :
       {std::uint16_t{64}, std::uint16_t{128}, std::uint16_t{208}}) {
    const auto faults =
        complete_set_fault_list(sites, tb.num_cycles(), true, q);
    const SetCampaignResult result = sim.run_set(faults);
    std::size_t latched = 0;
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const bool immediate_silent =
          result.outcomes[i].cls == FaultClass::kSilent &&
          result.outcomes[i].converge_cycle == result.faults[i].cycle + 1;
      latched += immediate_silent ? 0 : 1;
    }
    const double fraction =
        static_cast<double>(latched) / static_cast<double>(faults.size());
    EXPECT_NEAR(fraction, set_pulse_fraction(q), 0.04)
        << "latching probability off at q=" << q;
  }
}

TEST(PulseWidthTest, ImmediateDivergenceIsMonotoneInWidth) {
  // Per fault: the latched-FF set grows with the width step, so a fault
  // that is immediately silent at some width stays immediately silent at
  // every narrower width.
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 10;
  spec.num_gates = 110;
  const Circuit c = circuits::build_random(spec, 41);
  const Testbench tb = random_testbench(spec.num_inputs, 18, 42);
  const SetSites sites(c);
  SerialSetSimulator serial(c, tb);

  const auto immediate_silent = [&](std::uint16_t q) {
    const auto faults =
        complete_set_fault_list(sites, tb.num_cycles(), true, q);
    const SetCampaignResult result = serial.run(faults);
    std::vector<bool> silent_now(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      silent_now[i] =
          result.outcomes[i].cls == FaultClass::kSilent &&
          result.outcomes[i].converge_cycle == result.faults[i].cycle + 1;
    }
    return silent_now;
  };

  const auto narrow = immediate_silent(48);
  const auto mid = immediate_silent(160);
  const auto full = immediate_silent(kSetPulseFull);
  ASSERT_EQ(narrow.size(), mid.size());
  ASSERT_EQ(mid.size(), full.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_TRUE(!mid[i] || narrow[i]) << "fault " << i;
    EXPECT_TRUE(!full[i] || mid[i]) << "fault " << i;
  }
}

}  // namespace
}  // namespace femu
