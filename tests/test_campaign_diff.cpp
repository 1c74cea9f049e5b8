// The differential campaign harness (campaign_diff.h): fixed-seed cases of
// every circuit kind, testbench kind, fault model and fault-list kind are
// graded on every engine configuration and must match the model's serial
// reference. The harness also checks itself: a deliberately wrong grader
// must be caught and shrunk to a minimal case.
//
// Suites named *Slow* (the b14 cases) are split into the `slow` ctest label
// by CMake; the rest run under `tier1`. This file's slow suite grades the
// b14 stuck-at cases; each other model's b14 cases sit in its own source.

#include "campaign_diff.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace femu {
namespace {

// Four models x eight list kinds, eight draws of every pair.
constexpr std::uint64_t kTier1Cases = 256;

TEST(CampaignDiffTest, GeneratedCasesMatchSerialReferences) {
  for (std::uint64_t seed = 0; seed < kTier1Cases; ++seed) {
    const diff::Case c = diff::make_case(seed);
    const std::string report = diff::run_case(c);
    EXPECT_TRUE(report.empty()) << report;
  }
}

TEST(CampaignDiffTest, GeneratorCoversEveryKind) {
  // Labels read "<circuit spec>; <testbench kind> testbench x <cycles>;
  // <model>; <list kind> list of <n>".
  std::set<std::string> seen;
  const auto first_word = [](const std::string& s) {
    const std::string_view t = trim(s);
    return std::string(t.substr(0, t.find(' ')));
  };
  for (std::uint64_t seed = 0; seed < kTier1Cases; ++seed) {
    const std::vector<std::string> parts =
        split(diff::make_case(seed).label, ';');
    ASSERT_EQ(parts.size(), 4u);
    const std::string& spec = parts[0];
    seen.insert(spec.starts_with("random:")  ? "random"
                : spec.starts_with("shift:") ? "shift"
                : spec == "s27" || spec == "set_edge" ? spec
                                                     : "registry");
    for (const std::string& part : {parts[1], parts[2], parts[3]}) {
      seen.insert(first_word(part));
    }
  }
  const auto expect_all = [&](const auto& kinds) {
    for (const char* kind : kinds) {
      EXPECT_TRUE(seen.contains(kind)) << kind << " never drawn";
    }
  };
  expect_all(diff::kCircuitKinds);
  expect_all(diff::kTestbenchKinds);
  expect_all(diff::kModelKinds);
  expect_all(diff::kListKinds);
}

TEST(CampaignDiffTest, FastForwardToTheFinalCycle) {
  // Every flip-flop hit at cycle 1 (classified quickly) and at the last
  // cycle: a pool with nothing live jumps straight to the final cycle and
  // must end cleanly there.
  std::vector<Fault> faults;
  for (std::uint32_t ff = 0; ff < 8; ++ff) {
    faults.push_back({ff, 1});
    faults.push_back({ff, 39});
  }
  const diff::Case c =
      diff::hand_case("shift:8", zero_testbench(1, 40), std::move(faults));
  EXPECT_EQ(diff::check_case(c), "");
}

// ---- the harness checks itself ---------------------------------------------

TEST(CampaignDiffHarness, CatchesAndShrinksAWrongGrader) {
  // The engine's outcomes, except that SEUs on flip-flop 0 injected at
  // cycle 5 or later come back with the wrong class.
  const diff::Grader wrong = [](ParallelFaultSimulator& sim,
                                const diff::FaultList& faults) {
    std::vector<FaultOutcome> outcomes = diff::engine_grader(sim, faults);
    if (const auto* seu = std::get_if<std::vector<Fault>>(&faults)) {
      for (std::size_t i = 0; i < seu->size(); ++i) {
        if ((*seu)[i].ff_index == 0 && (*seu)[i].cycle >= 5) {
          outcomes[i].cls = outcomes[i].cls == FaultClass::kLatent
                                ? FaultClass::kSilent
                                : FaultClass::kLatent;
        }
      }
    }
    return outcomes;
  };
  const Circuit circuit = circuits::build_by_name("b06_like");
  const diff::Case c = diff::hand_case(
      "b06_like", random_testbench(circuit.num_inputs(), 24, 7),
      complete_fault_list(circuit.num_dffs(), 24));
  ASSERT_EQ(diff::check_case(c), "");  // the real engine passes

  EXPECT_NE(diff::check_case(c, wrong), "");
  const diff::Case small = diff::shrink(c, wrong);
  EXPECT_EQ(diff::fault_count(small.faults), 1u);
  EXPECT_LE(small.tb.num_cycles(), 6u);
  EXPECT_NE(diff::check_case(small, wrong), "");

  const std::string report = diff::run_case(c, wrong);
  EXPECT_NE(report.find("case seed 0 (hand)"), std::string::npos) << report;
  EXPECT_NE(report.find("std::vector<Fault>{{0, 5}}"), std::string::npos)
      << report;
}

// ---- b14 (slow label) ------------------------------------------------------

TEST(CampaignDiffSlowTest, B14StuckAtCasesMatchSerialReference) {
  // The b14 SEU, MBU and SET cases run in the *Slow* suites of
  // test_kernel_opt, test_word512 and test_set_campaign.
  EXPECT_EQ(diff::run_b14_cases(3), "");
}

}  // namespace
}  // namespace femu
