// Lane refill in ParallelFaultSimulator's pools: a lane whose fault is
// graded takes the next arrival, a pool opens a second bank only when every
// lane is busy, and retirements stream to the retire callback in batches of
// at most one lane width. Every case checks outcomes against a serial
// reference simulator and pins the eval-cycle count the refill rule implies.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <vector>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/mbu.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "stim/generate.h"

namespace femu {
namespace {

Circuit random_circuit(std::uint64_t seed) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 220;
  return circuits::build_random(spec, seed);
}

CampaignConfig compiled(LaneWidth lanes, unsigned threads = 1) {
  return {SimBackend::kCompiled, lanes, threads};
}

void expect_same_outcomes(std::span<const FaultOutcome> got,
                          std::span<const FaultOutcome> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "fault " << i;
  }
}

/// The last cycle a fault occupies its lane: the detect cycle, the cycle
/// before it converged, or the testbench's last cycle.
std::uint32_t retire_cycle(const FaultOutcome& o, std::size_t num_cycles) {
  if (o.cls == FaultClass::kFailure) return o.detect_cycle;
  if (o.cls == FaultClass::kSilent && o.converge_cycle != kNoCycle) {
    return o.converge_cycle - 1;
  }
  return static_cast<std::uint32_t>(num_cycles - 1);
}

/// Fault indices in the engine's schedule order: stable by `keys`.
std::vector<std::uint32_t> schedule_order(std::span<const std::uint64_t> keys) {
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  return order;
}

/// Cycles a machine carrying `members` must evaluate: the union of their
/// [inject, retire] intervals.
std::uint64_t busy_cycles(std::span<const std::uint32_t> members,
                          std::span<const std::uint32_t> inject,
                          std::span<const FaultOutcome> outcomes,
                          std::size_t num_cycles) {
  std::vector<char> busy(num_cycles, 0);
  for (const std::uint32_t i : members) {
    for (std::uint32_t t = inject[i]; t <= retire_cycle(outcomes[i], num_cycles);
         ++t) {
      busy[t] = 1;
    }
  }
  return static_cast<std::uint64_t>(std::count(busy.begin(), busy.end(), 1));
}

/// Eval cycles of independent lane groups (no refill): the schedule cut
/// into consecutive `width`-fault groups, each busy for its faults' union.
std::uint64_t independent_group_cost(std::span<const std::uint64_t> keys,
                                     std::span<const std::uint32_t> inject,
                                     std::span<const FaultOutcome> outcomes,
                                     std::size_t num_cycles,
                                     std::size_t width) {
  const std::vector<std::uint32_t> order = schedule_order(keys);
  std::uint64_t cost = 0;
  for (std::size_t begin = 0; begin < order.size(); begin += width) {
    const std::size_t count = std::min(width, order.size() - begin);
    cost += busy_cycles(std::span(order).subspan(begin, count), inject,
                        outcomes, num_cycles);
  }
  return cost;
}

std::vector<std::uint64_t> seu_keys(std::span<const Fault> faults,
                                    std::size_t num_dffs) {
  std::vector<std::uint64_t> keys;
  for (const Fault& f : faults) {
    keys.push_back(std::uint64_t{f.cycle} * num_dffs + f.ff_index);
  }
  return keys;
}

template <typename FaultT>
std::vector<std::uint32_t> inject_cycles(std::span<const FaultT> faults) {
  std::vector<std::uint32_t> cycles;
  for (const FaultT& f : faults) cycles.push_back(f.cycle);
  return cycles;
}

TEST(LaneRefillTest, FailureRetiredLaneTakesNextCycleArrival) {
  const Circuit c = random_circuit(3);
  const Testbench tb = random_testbench(c.num_inputs(), 40, 5);
  const std::size_t dffs = c.num_dffs();
  for (const CampaignConfig& config :
       {CampaignConfig{SimBackend::kInterpreted}, compiled(LaneWidth::k64),
        compiled(LaneWidth::k512)}) {
    const std::size_t width = config.backend == SimBackend::kInterpreted
                                  ? 64
                                  : lane_count(config.lanes);
    SCOPED_TRACE(testing::Message() << sim_backend_name(config.backend)
                                    << " " << width);
    // Four groups injected at cycle 0 fill the four pools' first banks.
    std::vector<Fault> faults;
    for (std::size_t i = 0; i < 4 * width; ++i) {
      faults.push_back({static_cast<std::uint32_t>(i % dffs), 0});
    }
    SerialFaultSimulator serial(c, tb);
    const CampaignResult first = serial.run(faults);
    const std::vector<std::uint32_t> order =
        schedule_order(seu_keys(faults, dffs));
    const std::span<const std::uint32_t> group0(order.data(), width);

    // Pool 0's first failure lands at cycle cf; a fifth group injected at
    // cf + 1 goes to pool 0 and takes exactly the lanes free by then.
    std::uint32_t cf = kNoCycle;
    for (const std::uint32_t i : group0) {
      if (first.outcomes()[i].cls == FaultClass::kFailure) {
        cf = std::min(cf, first.outcomes()[i].detect_cycle);
      }
    }
    ASSERT_LT(cf + 1, tb.num_cycles()) << "pool 0 never fails early";
    std::size_t freed = 0;
    for (const std::uint32_t i : group0) {
      const FaultOutcome& o = first.outcomes()[i];
      freed += (o.cls == FaultClass::kFailure && o.detect_cycle <= cf) ||
               (o.cls == FaultClass::kSilent && o.converge_cycle <= cf + 1);
    }
    for (std::size_t k = 0; k < freed; ++k) {
      faults.push_back({static_cast<std::uint32_t>(k % dffs), cf + 1});
    }

    const CampaignResult want = serial.run(faults);
    ParallelFaultSimulator sim(c, tb, config);
    const CampaignResult got = sim.run(faults);
    expect_same_outcomes(got.outcomes(), want.outcomes());

    // One bank per pool: pool 0 evaluates the union of groups 0 and 4,
    // which a second bank would have exceeded.
    const std::vector<std::uint32_t> all_order =
        schedule_order(seu_keys(faults, dffs));
    const std::vector<std::uint32_t> inject = inject_cycles<Fault>(faults);
    std::vector<std::uint32_t> pool0(all_order.begin(),
                                     all_order.begin() + width);
    pool0.insert(pool0.end(), all_order.begin() + 4 * width, all_order.end());
    std::uint64_t expected = busy_cycles(pool0, inject, want.outcomes(),
                                         tb.num_cycles());
    for (std::size_t g = 1; g < 4; ++g) {
      expected += busy_cycles(std::span(all_order).subspan(g * width, width),
                              inject, want.outcomes(), tb.num_cycles());
    }
    EXPECT_EQ(sim.last_run_eval_cycles(), expected);
  }
}

TEST(LaneRefillTest, OverflowArrivalsOpenASecondBank) {
  // Eight 64-fault groups injected at cycle 3 — two per pool, 128 arrivals
  // in one cycle — so every pool opens a second bank, each bank exactly one
  // group.
  const Circuit c = random_circuit(11);
  const Testbench tb = random_testbench(c.num_inputs(), 30, 7);
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < 8 * 64; ++i) {
    faults.push_back({static_cast<std::uint32_t>(i % c.num_dffs()), 3});
  }
  const CampaignResult want = SerialFaultSimulator(c, tb).run(faults);
  for (const unsigned threads : {1u, 4u}) {
    ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k64, threads));
    expect_same_outcomes(sim.run(faults).outcomes(), want.outcomes());
    EXPECT_EQ(sim.last_run_eval_cycles(),
              independent_group_cost(seu_keys(faults, c.num_dffs()),
                                     inject_cycles<Fault>(faults),
                                     want.outcomes(), tb.num_cycles(), 64));
  }
}

TEST(LaneRefillTest, RefilledSetLanesWithPulseThinningMatchSerial) {
  const Circuit c = random_circuit(17);
  const Testbench tb = random_testbench(c.num_inputs(), 40, 19);
  const SetSites sites(c);
  const auto faults = sample_set_fault_list(sites, tb.num_cycles(), 1500, 23,
                                            set_pulse_q(0.4));
  const SetCampaignResult want = SerialSetSimulator(c, tb).run(faults);
  std::vector<std::uint64_t> keys;
  for (const SetFault& f : faults) {
    keys.push_back(std::uint64_t{f.cycle} * c.node_count() + f.node);
  }
  const std::uint64_t independent = independent_group_cost(
      keys, inject_cycles<SetFault>(faults), want.outcomes, tb.num_cycles(),
      64);
  std::uint64_t cycles_1t = 0;
  for (const unsigned threads : {1u, 4u}) {
    ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k64, threads));
    expect_same_outcomes(sim.run_set(faults).outcomes, want.outcomes);
    EXPECT_LT(sim.last_run_eval_cycles(), independent);
    if (threads == 1) cycles_1t = sim.last_run_eval_cycles();
    EXPECT_EQ(sim.last_run_eval_cycles(), cycles_1t);
  }
}

TEST(LaneRefillTest, RefilledMbuLanesMatchSerial) {
  // b14, whose faults outlive a pool's gap between its groups (the random
  // circuits' faults mostly fail within a group's own span).
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 40, 31);
  const auto faults = adjacent_pair_fault_list(c.num_dffs(), tb.num_cycles());
  const MbuCampaignResult want = MbuFaultSimulator(c, tb).run(faults);
  std::vector<std::uint64_t> keys;
  for (const MbuFault& f : faults) {
    keys.push_back(std::uint64_t{f.cycle} * c.num_dffs() + f.ff_indices.front());
  }
  const std::uint64_t independent = independent_group_cost(
      keys, inject_cycles<MbuFault>(faults), want.outcomes, tb.num_cycles(),
      64);
  for (const unsigned threads : {1u, 4u}) {
    ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k64, threads));
    expect_same_outcomes(sim.run_mbu(faults).outcomes, want.outcomes);
    EXPECT_LT(sim.last_run_eval_cycles(), independent);
  }
}

TEST(LaneRefillTest, StuckAtNeverRefillsSoCostsIndependentGroups) {
  const Circuit c = random_circuit(37);
  const Testbench tb = random_testbench(c.num_inputs(), 40, 41);
  const auto faults = complete_stuckat_fault_list(SetSites(c));
  const StuckAtCampaignResult want = SerialStuckAtSimulator(c, tb).run(faults);
  std::vector<std::uint64_t> keys;
  for (const StuckAtFault& f : faults) keys.push_back(f.node);
  const std::vector<std::uint32_t> inject(faults.size(), 0);
  for (const unsigned threads : {1u, 4u}) {
    ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k64, threads));
    expect_same_outcomes(sim.run_stuckat(faults).outcomes, want.outcomes);
    EXPECT_EQ(sim.last_run_eval_cycles(),
              independent_group_cost(keys, inject, want.outcomes,
                                     tb.num_cycles(), 64));
  }
}

TEST(LaneRefillTest, StuckAtOnEmptyTestbenchGradesSilent) {
  const Circuit c = random_circuit(39);
  const Testbench tb(c.num_inputs());
  const auto faults = complete_stuckat_fault_list(SetSites(c));
  const StuckAtCampaignResult want = SerialStuckAtSimulator(c, tb).run(faults);
  for (const unsigned threads : {1u, 4u}) {
    ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k64, threads));
    std::size_t streamed = 0;
    sim.set_retire_callback([&](std::span<const std::uint32_t> indices,
                                std::span<const FaultOutcome>,
                                std::span<const std::uint64_t>) {
      static std::mutex mutex;
      std::lock_guard<std::mutex> lock(mutex);
      streamed += indices.size();
    });
    expect_same_outcomes(sim.run_stuckat(faults).outcomes, want.outcomes);
    EXPECT_EQ(streamed, faults.size());
    EXPECT_EQ(sim.last_run_eval_cycles(), 0u);
  }
}

TEST(LaneRefillTest, B14CompleteSeuCostsAtMostHalfOfIndependentGroups) {
  const Circuit c = circuits::build_b14();
  const Testbench tb =
      random_testbench(c.num_inputs(), circuits::kB14Vectors, 2005);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k512));
  const CampaignResult result = sim.run(faults);
  const std::vector<std::uint32_t> inject = inject_cycles<Fault>(faults);
  const std::uint64_t independent =
      independent_group_cost(seu_keys(faults, c.num_dffs()), inject,
                             result.outcomes(), tb.num_cycles(), 512);
  EXPECT_LE(2 * sim.last_run_eval_cycles(), independent)
      << sim.last_run_eval_cycles() << " eval cycles vs " << independent;

  // Live lane-cycles are exactly each fault's own lifetime.
  std::uint64_t lifetimes = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    lifetimes += retire_cycle(result.outcomes()[i], tb.num_cycles()) -
                 inject[i] + 1;
  }
  const obs::CampaignTelemetry& t = sim.telemetry_snapshot();
  EXPECT_EQ(t.live_lane_cycles, lifetimes);
  EXPECT_DOUBLE_EQ(t.lane_cycle_occupancy,
                   static_cast<double>(lifetimes) /
                       static_cast<double>(t.eval_cycles * 512));
}

TEST(LaneRefillTest, RetireCallbackBatchesCoverEveryFaultOnce) {
  const Circuit c = random_circuit(43);
  const Testbench tb = random_testbench(c.num_inputs(), 40, 47);
  const auto faults = sample_fault_list(c.num_dffs(), tb.num_cycles(), 700, 53);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ParallelFaultSimulator sim(c, tb, compiled(LaneWidth::k64, threads));
    std::mutex mutex;
    std::vector<int> seen(faults.size(), 0);
    std::vector<FaultOutcome> streamed(faults.size());
    std::size_t batches = 0, oversized = 0;
    sim.set_retire_callback([&](std::span<const std::uint32_t> indices,
                                std::span<const FaultOutcome> outcomes,
                                std::span<const std::uint64_t>) {
      std::lock_guard<std::mutex> lock(mutex);
      ++batches;
      oversized += indices.size() > 64;
      for (std::size_t k = 0; k < indices.size(); ++k) {
        ++seen[indices[k]];
        streamed[indices[k]] = outcomes[k];
      }
    });
    const CampaignResult result = sim.run(faults);
    EXPECT_EQ(oversized, 0u);
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int n) { return n == 1; }));
    expect_same_outcomes(streamed, result.outcomes());
    // Full batches as pools fill, one partial batch per pool end: as many
    // batches as lane-width groups.
    EXPECT_EQ(batches, sim.last_run_group_widths().total());
  }
}

}  // namespace
}  // namespace femu
