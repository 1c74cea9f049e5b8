// Large-generated-circuit campaigns: complete and sampled SEU campaigns on
// 50k-gate and 80k-node pipelines run end-to-end, schedule construction
// included, and must classify identically on every compiled configuration
// of the differential harness (lane widths 64/512 x threads 1/4).
//
// Suites named *Slow* run under the `slow` ctest label.

#include <gtest/gtest.h>

#include "campaign_diff.h"
#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "stim/generate.h"

namespace femu {
namespace {

TEST(ScaleCampaignSlowTest, Pipeline50kGateCompleteSeuCampaign) {
  // 96x176 pipeline: 50,687 gates, 16,896 FFs, 67,760 nodes — the >=50k
  // gate acceptance circuit. Complete fault list over a short testbench;
  // "complete" covers every FF at every cycle.
  const Circuit c = circuits::build_pipeline(96, 176);
  ASSERT_GE(c.num_gates(), 50000u);
  const Testbench tb = random_testbench(c.num_inputs(), 4, 2026);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  ASSERT_GE(faults.size(), 50000u);

  ClassCounts want;
  bool have_want = false;
  for (const CampaignConfig& config : diff::compiled_configs()) {
    ParallelFaultSimulator sim(c, tb, config);
    const ClassCounts got = sim.run(faults).counts();
    if (!have_want) {
      want = got;
      have_want = true;
      EXPECT_EQ(want.total(), faults.size());
      continue;
    }
    EXPECT_EQ(got.failure, want.failure) << diff::config_name(config);
    EXPECT_EQ(got.latent, want.latent) << diff::config_name(config);
    EXPECT_EQ(got.silent, want.silent) << diff::config_name(config);
  }
}

TEST(ScaleCampaignSlowTest, Pipeline100kNodeSampledCampaign) {
  // The 100k-node tier (82,080 nodes, 61,439 gates): a sampled campaign
  // proving construction and grading stay tractable one size up.
  const Circuit c = circuits::build_pipeline(128, 160);
  ASSERT_GE(c.node_count(), 80000u);
  const Testbench tb = random_testbench(c.num_inputs(), 4, 2027);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 8192, 29);

  ParallelFaultSimulator base(c, tb,
                              {SimBackend::kCompiled, LaneWidth::k512, 1});
  const CampaignResult ref = base.run(faults);
  ParallelFaultSimulator threaded(c, tb,
                                  {SimBackend::kCompiled, LaneWidth::k512, 4});
  const CampaignResult got = threaded.run(faults);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.outcomes()[i], got.outcomes()[i]) << "fault @" << i;
  }
}

}  // namespace
}  // namespace femu
