// Kernel IR optimizer (sim/kernel_opt.h): inverter/buffer absorption into
// per-operand complement flags, constant folding, dead-logic elimination,
// the pass accounting invariant, the injection-site preserve contract, the
// s27 .bench fixture, and which kernel a campaign executes per fault model
// (SEU/MBU the FF-model optimized kernel, SET/stuck-at the raw kernel).
// Campaign agreement with the serial references is the differential
// harness's job (test_campaign_diff.cpp); the *Slow* suite runs its b14 SEU
// cases, which grade on the optimized kernel.

#include "sim/kernel_opt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "campaign_diff.h"
#include "circuits/generators.h"
#include "circuits/registry.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "netlist/bench_io.h"
#include "sim/golden_slots.h"
#include "stim/generate.h"

namespace femu {
namespace {

using Instr = CompiledKernel::Instr;
using OptStats = CompiledKernel::OptStats;

std::shared_ptr<const CompiledKernel> optimize(
    const std::shared_ptr<const CompiledKernel>& raw,
    std::vector<NodeId> preserve = {}) {
  return optimize_kernel(raw, preserve);
}

/// raw - opt == absorbed + folded + dead, and the recorded opt size is the
/// actual program size — the accounting identity every report relies on.
void expect_stats_consistent(const CompiledKernel& raw,
                             const CompiledKernel& opt) {
  const OptStats& s = opt.opt_stats();
  EXPECT_TRUE(s.optimized());
  EXPECT_EQ(s.raw_instrs, raw.program().size());
  EXPECT_EQ(s.opt_instrs, opt.program().size());
  EXPECT_EQ(s.raw_instrs - s.opt_instrs, s.absorbed + s.folded + s.dead);
}

/// The observable slots (PO drivers, DFF D drivers, plus any `extra` —
/// preserved sites) must settle to the raw kernel's golden value at every
/// cycle. Non-observable slots are allowed to go stale — that is the point
/// of the optimizer.
void expect_observably_equal(const CompiledKernel& raw,
                             const CompiledKernel& opt, const Testbench& tb,
                             std::span<const NodeId> extra = {}) {
  const GoldenSlotTrace a = capture_golden_slots(raw, tb.vectors());
  const GoldenSlotTrace b = capture_golden_slots(opt, tb.vectors());
  ASSERT_EQ(a.num_cycles(), b.num_cycles());
  std::vector<std::uint32_t> observed(raw.output_slots().begin(),
                                      raw.output_slots().end());
  observed.insert(observed.end(), raw.dff_d_slots().begin(),
                  raw.dff_d_slots().end());
  observed.insert(observed.end(), extra.begin(), extra.end());
  for (std::size_t t = 0; t < a.num_cycles(); ++t) {
    for (const std::uint32_t s : observed) {
      ASSERT_EQ(a.at(t).get(s), b.at(t).get(s))
          << "slot " << s << " @ cycle " << t;
    }
  }
}

/// Every comb-cell node id — the site universe a stuck-at-style campaign
/// could inject at.
std::vector<NodeId> gate_nodes(const Circuit& c) {
  std::vector<NodeId> nodes;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (is_comb_cell(c.type(id))) nodes.push_back(id);
  }
  return nodes;
}

Circuit random_circuit(std::uint64_t seed, std::size_t gates = 180) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 14;
  spec.num_gates = gates;
  return circuits::build_random(spec, seed);
}

// ---- pass mechanics --------------------------------------------------------

TEST(KernelOptTest, AbsorbsInverterChains) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NOT(a)
n2 = BUFF(n1)
n3 = NOT(n2)
n4 = NOT(n3)
y = AND(n4, b)
)",
                                      "chain");
  const auto raw = compile_kernel(c);
  const auto opt = optimize(raw);
  expect_stats_consistent(*raw, *opt);
  // The whole chain collapses into y's operand-a complement flag: NOT,
  // BUFF, NOT, NOT over `a` is odd parity.
  ASSERT_EQ(opt->program().size(), 1u);
  EXPECT_EQ(opt->opt_stats().absorbed, 4u);
  const Instr& y = opt->program().front();
  EXPECT_EQ(y.op, CellType::kAnd);
  EXPECT_EQ(y.a, *c.find("a"));
  EXPECT_EQ(y.b, *c.find("b"));
  EXPECT_EQ(y.neg, 1u);  // ~a, b untouched
  expect_observably_equal(*raw, *opt,
                          random_testbench(c.num_inputs(), 32, 7));
}

TEST(KernelOptTest, HoistsXorOperandParityIntoTheOpcode) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
n = NOT(a)
y = XOR(n, b)
)",
                                      "xpar");
  const auto raw = compile_kernel(c);
  const auto opt = optimize(raw);
  expect_stats_consistent(*raw, *opt);
  // XOR(~a, b) == XNOR(a, b): the parity moves into the opcode, never into
  // neg flags (XOR instructions always carry neg == 0).
  ASSERT_EQ(opt->program().size(), 1u);
  const Instr& y = opt->program().front();
  EXPECT_EQ(y.op, CellType::kXnor);
  EXPECT_EQ(y.neg, 0u);
  expect_observably_equal(*raw, *opt,
                          random_testbench(c.num_inputs(), 32, 7));
}

TEST(KernelOptTest, FoldsConstantsThroughGateChains) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
c0 = GND()
n = AND(a, c0)
m = OR(b, n)
y = AND(a, m)
)",
                                      "fold");
  const auto raw = compile_kernel(c);
  const auto opt = optimize(raw);
  expect_stats_consistent(*raw, *opt);
  // n folds to 0, so m aliases b and y reads b directly: one instruction.
  ASSERT_EQ(opt->program().size(), 1u);
  EXPECT_GE(opt->opt_stats().folded, 1u);
  const Instr& y = opt->program().front();
  EXPECT_EQ(y.op, CellType::kAnd);
  EXPECT_EQ(y.a, *c.find("a"));
  EXPECT_EQ(y.b, *c.find("b"));
  EXPECT_EQ(y.neg, 0u);
  expect_observably_equal(*raw, *opt,
                          random_testbench(c.num_inputs(), 32, 9));
}

TEST(KernelOptTest, EliminatesDeadLogic) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
d1 = OR(a, b)
d2 = XOR(d1, a)
)",
                                      "dead");
  const auto raw = compile_kernel(c);
  const auto opt = optimize(raw);
  expect_stats_consistent(*raw, *opt);
  // d1/d2 reach no output, DFF or preserved node.
  EXPECT_EQ(opt->program().size(), 1u);
  EXPECT_EQ(opt->opt_stats().dead, 2u);
  EXPECT_EQ(opt->program().front().dest, *c.find("y"));
}

TEST(KernelOptTest, PreserveKeepsSitesMaterializedAndExact) {
  const Circuit c = random_circuit(11);
  const auto raw = compile_kernel(c);
  // Preserve a pseudo-random half of the gate sites (a stuck-at-style
  // campaign over a site subset).
  std::vector<NodeId> sites = gate_nodes(c);
  std::mt19937_64 rng(99);
  std::vector<NodeId> preserve;
  for (const NodeId s : sites) {
    if ((rng() & 1) != 0) preserve.push_back(s);
  }
  const auto opt = optimize(raw, preserve);
  expect_stats_consistent(*raw, *opt);
  EXPECT_EQ(opt->opt_stats().preserved, preserve.size());
  // Contract (a): every preserved site keeps an instruction with that dest
  // in the stream (the ascending-dest overlay merge must be able to hit
  // it) ...
  std::vector<bool> has_instr(c.node_count(), false);
  std::uint32_t prev_dest = 0;
  for (const Instr& in : opt->program()) {
    EXPECT_TRUE(in.dest >= prev_dest) << "dest order broken";
    prev_dest = in.dest;
    has_instr[in.dest] = true;
  }
  for (const NodeId s : preserve) {
    EXPECT_TRUE(has_instr[s]) << "preserved site " << s << " lost its instr";
  }
  // ... and (b): its slot settles to the raw golden value every cycle.
  expect_observably_equal(*raw, *opt,
                          random_testbench(c.num_inputs(), 48, 5), preserve);
}

TEST(KernelOptTest, StatsAndEquivalenceOnRandomCircuits) {
  for (const std::uint64_t seed : {1u, 17u, 23u, 42u}) {
    const Circuit c = random_circuit(seed);
    const auto raw = compile_kernel(c);
    const auto opt = optimize(raw);
    expect_stats_consistent(*raw, *opt);
    EXPECT_LE(opt->program().size(), raw->program().size());
    expect_observably_equal(*raw, *opt,
                            random_testbench(c.num_inputs(), 40, seed));
  }
}

TEST(KernelOptTest, RegistryCircuitsShrinkAndStayEquivalent) {
  for (const char* name : {"b06_like", "b14"}) {
    const Circuit c = circuits::build_by_name(name);
    const auto raw = compile_kernel(c);
    const auto opt = optimize(raw);
    expect_stats_consistent(*raw, *opt);
    // The registry circuits all carry inverters; a no-op optimizer run on
    // them would be a regression.
    EXPECT_LT(opt->program().size(), raw->program().size()) << name;
    expect_observably_equal(*raw, *opt,
                            random_testbench(c.num_inputs(), 24, 3));
  }
}

TEST(KernelOptCampaignTest, KernelFollowsTheModel) {
  // One engine: an overlay (SET) run executes the raw kernel and reports no
  // optimizer work; the following SEU run executes the FF-model kernel and
  // reports its counts.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 5);
  const SetSites sites(c);
  ParallelFaultSimulator sim(c, tb, {SimBackend::kCompiled, LaneWidth::k64, 1});

  const auto set = complete_set_fault_list(sites, tb.num_cycles(), true);
  (void)sim.run_set(set);
  const obs::CampaignTelemetry& t = sim.telemetry_snapshot();
  EXPECT_EQ(t.opt_raw_instrs, 0u);
  EXPECT_EQ(t.opt_instrs, 0u);
  EXPECT_EQ(t.opt_absorbed + t.opt_folded + t.opt_dead, 0u);
  EXPECT_EQ(t.opt_seconds, 0.0);
  EXPECT_EQ(sim.last_run_eval_instrs(),
            sim.last_run_eval_cycles() * c.num_gates());

  (void)sim.run(complete_fault_list(c.num_dffs(), tb.num_cycles()));
  const OptStats ff = optimize(compile_kernel(c))->opt_stats();
  EXPECT_EQ(t.opt_raw_instrs, ff.raw_instrs);
  EXPECT_EQ(t.opt_instrs, ff.opt_instrs);
  EXPECT_EQ(t.opt_absorbed, ff.absorbed);
  EXPECT_EQ(t.opt_folded, ff.folded);
  EXPECT_EQ(t.opt_dead, ff.dead);
  EXPECT_LT(t.opt_instrs, t.opt_raw_instrs);
  EXPECT_EQ(sim.last_run_eval_instrs(),
            sim.last_run_eval_cycles() * ff.opt_instrs);
}

// ---- external-netlist fixture (parse -> optimize) -------------------------

TEST(KernelOptCampaignTest, S27BenchFixtureOptimizes) {
  const Circuit c = load_bench_file(std::string(FEMU_TESTS_DIR) +
                                    "/s27.bench");
  EXPECT_EQ(c.num_inputs(), 4u);
  EXPECT_EQ(c.num_outputs(), 1u);
  EXPECT_EQ(c.num_dffs(), 3u);

  const auto raw = compile_kernel(c);
  const auto opt = optimize(raw);
  expect_stats_consistent(*raw, *opt);
  // G14 = NOT(G0) feeds two gates and must be absorbed; G17 = NOT(G11)
  // drives the PO and must survive (materialized).
  EXPECT_GE(opt->opt_stats().absorbed, 1u);
  EXPECT_LT(opt->program().size(), raw->program().size());
}

// ---- b14 (*Slow* suite) ----------------------------------------------------

TEST(KernelOptSlowTest, B14SeuCasesMatchSerialAcrossTiersAndThreads) {
  EXPECT_EQ(diff::run_b14_cases(0), "");
}

}  // namespace
}  // namespace femu
