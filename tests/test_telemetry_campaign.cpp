// Campaign telemetry (obs::TelemetryCollector wired through
// CampaignConfig::telemetry): the merged metrics must be bit-identical for
// any thread count, and the exported trace/metrics JSON must be well-formed
// and consistent with the engine's own work metrics. That attaching a
// collector is outcome-neutral for every fault model is checked by the
// differential harness (test_campaign_diff.cpp).

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/journal.h"
#include "fault/parallel_faultsim.h"
#include "json_mini.h"
#include "obs/telemetry.h"
#include "stim/generate.h"

namespace femu {
namespace {

Circuit medium_random_circuit(std::uint64_t seed = 7) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 220;
  return circuits::build_random(spec, seed);
}

CampaignConfig engine_config(LaneWidth lanes, unsigned threads,
                             obs::TelemetryCollector* telemetry = nullptr) {
  CampaignConfig config{SimBackend::kCompiled, lanes, threads};
  config.telemetry = telemetry;
  return config;
}

// ---- merged-metric determinism ---------------------------------------------

TEST(TelemetryCampaignTest, MergedMetricsBitIdenticalOneVsFourThreads) {
  const Circuit c = medium_random_circuit(5);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 11);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 500, 3);

  obs::TelemetryCollector one;
  obs::TelemetryCollector four;
  ParallelFaultSimulator sim1(c, tb, engine_config(LaneWidth::k64, 1, &one));
  ParallelFaultSimulator sim4(c, tb, engine_config(LaneWidth::k64, 4, &four));
  EXPECT_EQ(sim1.run(faults).outcomes(), sim4.run(faults).outcomes());

  const obs::MetricSnapshot a = one.snapshot();
  const obs::MetricSnapshot b = four.snapshot();
  const auto counter_names = one.registry().counter_names();
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]) << counter_names[i];
  }
  const auto gauge_names = one.registry().gauge_names();
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i], b.gauges[i]) << gauge_names[i];
  }
  // Histograms of deterministic observations (width, occupancy) merge
  // bit-identically; wall-clock histograms (*_ns) only promise
  // a deterministic sample count.
  const auto hist_names = one.registry().histogram_names();
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    const obs::HistogramData& ha = a.histograms[i];
    const obs::HistogramData& hb = b.histograms[i];
    EXPECT_EQ(ha.count, hb.count) << hist_names[i];
    if (hist_names[i].ends_with("_ns")) continue;
    EXPECT_EQ(ha.counts, hb.counts) << hist_names[i];
    EXPECT_EQ(ha.sum, hb.sum) << hist_names[i];
    EXPECT_EQ(ha.min, hb.min) << hist_names[i];
    EXPECT_EQ(ha.max, hb.max) << hist_names[i];
  }
}

// ---- exported JSON ----------------------------------------------------------

TEST(TelemetryCampaignTest, TraceJsonWellFormedWithPerWorkerTracks) {
  const Circuit c = medium_random_circuit(3);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 7);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());

  obs::TelemetryCollector collector;
  ParallelFaultSimulator sim(c, tb, engine_config(LaneWidth::k64, 4,
                                                &collector));
  (void)sim.run(faults);

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const testjson::Value doc = testjson::parse(out.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());

  std::set<double> slice_tids;
  std::set<std::string> campaign_names;
  std::size_t groups = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").str();
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    if (ph != "X") continue;
    slice_tids.insert(e.at("tid").num());
    if (e.at("tid").num() == obs::kCampaignTrack) {
      campaign_names.insert(e.at("name").str());
    }
    if (e.at("name").str() == "group") {
      ++groups;
      const testjson::Value& args = e.at("args");
      EXPECT_EQ(args.at("width").num(), 64.0);
      EXPECT_GE(args.at("live").num(), 1.0);
      EXPECT_LE(args.at("live").num(), 64.0);
    }
  }
  // The construction + run phases all land on the campaign track.
  for (const char* phase :
       {"compile", "golden_trace", "plan", "grade"}) {
    EXPECT_TRUE(campaign_names.contains(phase)) << phase;
  }
  // Every retire batch became exactly one slice, on some worker track, and
  // a run has as many batches as lane-width groups. WHICH workers retired
  // them is scheduling-dependent (work stealing), so assert the range, not
  // a specific id.
  EXPECT_EQ(groups, sim.last_run_group_widths().total());
  EXPECT_TRUE(slice_tids.contains(obs::kCampaignTrack));
  bool worker_slices = false;
  for (const double tid : slice_tids) {
    worker_slices = worker_slices ||
                    (tid >= obs::kWorkerBase && tid < obs::kJournalTrack);
  }
  EXPECT_TRUE(worker_slices);

  // Metrics JSON parses and agrees with the engine's own counters.
  std::ostringstream metrics;
  collector.write_metrics_json(metrics);
  const testjson::Value m = testjson::parse(metrics.str());
  EXPECT_EQ(m.at("counters").at("faults_retired").num(),
            static_cast<double>(faults.size()));
  EXPECT_EQ(m.at("counters").at("groups_retired").num(),
            static_cast<double>(sim.last_run_group_widths().total()));
  EXPECT_EQ(m.at("counters").at("eval_instrs").num(),
            static_cast<double>(sim.last_run_eval_instrs()));
  EXPECT_EQ(m.at("gauges").at("peak_group_occupancy_pct").num(), 100.0);
}

// ---- journal flush telemetry ------------------------------------------------

TEST(TelemetryCampaignTest, JournaledCampaignRecordsFlushLatency) {
  const Circuit c = medium_random_circuit(9);
  const Testbench tb = random_testbench(c.num_inputs(), 24, 5);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  const std::string path =
      ::testing::TempDir() + "femu_telemetry_flush.jrnl";
  std::remove(path.c_str());

  obs::TelemetryCollector collector;
  CampaignConfig config = engine_config(LaneWidth::k64, 2, &collector);
  ParallelFaultSimulator sim(c, tb, config);
  const JournaledCampaignReport rep =
      run_journaled_seu_campaign(sim, faults, path, /*resume=*/false);
  EXPECT_EQ(rep.graded, faults.size());

  // One flush span per retire batch (plus the completion marker).
  const obs::MetricSnapshot snap = collector.snapshot();
  const auto hist_names = collector.registry().histogram_names();
  bool found = false;
  for (std::size_t i = 0; i < hist_names.size(); ++i) {
    if (hist_names[i] != "journal_flush_ns") continue;
    found = true;
    EXPECT_EQ(snap.histograms[i].count,
              sim.last_run_group_widths().total() + 1);
  }
  EXPECT_TRUE(found);

  std::ostringstream out;
  collector.write_chrome_trace(out);
  const testjson::Value doc = testjson::parse(out.str());
  bool journal_track = false;
  for (const auto& e : doc.at("traceEvents").items()) {
    if (e.at("ph").str() == "X" &&
        e.at("tid").num() == obs::kJournalTrack) {
      EXPECT_EQ(e.at("name").str(), "journal_flush");
      journal_track = true;
    }
  }
  EXPECT_TRUE(journal_track);
  std::remove(path.c_str());
  std::remove((path + ".dict").c_str());
}

// ---- progress reporter -----------------------------------------------------

TEST(TelemetryCampaignTest, ProgressReporterCountsRetirements) {
  obs::TelemetryCollector collector;
  collector.enable_progress();
  ASSERT_NE(collector.progress(), nullptr);

  const Circuit c = medium_random_circuit(21);
  const Testbench tb = random_testbench(c.num_inputs(), 24, 9);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 200, 31);
  ParallelFaultSimulator sim(c, tb, engine_config(LaneWidth::k64, 2,
                                                &collector));
  (void)sim.run(faults);
  EXPECT_EQ(collector.progress()->retired(), faults.size());
}

}  // namespace
}  // namespace femu
