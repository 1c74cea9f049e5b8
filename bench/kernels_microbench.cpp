// google-benchmark microbenchmarks of the engines underneath the emulation
// system: raw simulator throughput (cycles/s, gate-evals/s) for the
// interpreted and compiled backends side by side, fault-grading throughput
// (faults/s) of the serial vs the bit-parallel engines at both lane widths,
// and the cost of the `.bench` reader, the netlist transforms and the LUT
// mapper.
//
// These are the numbers that justify the fast-path architecture: the
// compiled 64/512-lane engines grade b14 faults orders of magnitude faster
// than serial simulation, which is what makes whole-campaign reproduction
// interactive. main() additionally runs a quick interpreted-vs-compiled
// sanity race and warns (soft, non-fatal) if the compiled kernel ever
// regresses below the interpreted baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "common/timer.h"
#include "core/instrument.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "map/lut_mapper.h"
#include "netlist/bench_io.h"
#include "sim/compiled_kernel.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/parallel_sim.h"
#include "stim/generate.h"

namespace {

using namespace femu;

const Circuit& b14() {
  static const Circuit circuit = circuits::build_b14();
  return circuit;
}

const Testbench& b14_tb() {
  static const Testbench tb =
      random_testbench(b14().num_inputs(), 160, 2005);
  return tb;
}

// ---- single-machine engines: interpreted vs compiled -----------------------

void BM_LevelizedSim_B14_Interpreted(benchmark::State& state) {
  LevelizedSimulator sim(b14(), SimBackend::kInterpreted);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(b14_tb().vector(t)));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations());  // circuit-cycles/s
}
BENCHMARK(BM_LevelizedSim_B14_Interpreted);

void BM_LevelizedSim_B14_Compiled(benchmark::State& state) {
  LevelizedSimulator sim(b14(), SimBackend::kCompiled);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(b14_tb().vector(t)));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LevelizedSim_B14_Compiled);

void BM_EventSim_B14(benchmark::State& state) {
  EventSimulator sim(b14());
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(b14_tb().vector(t)));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSim_B14);

// ---- lane-parallel engines: interpreted vs compiled, 64 vs 512 lanes -------

void BM_ParallelSim_B14_Interpreted(benchmark::State& state) {
  ParallelSimulator sim(b14(), SimBackend::kInterpreted);
  std::size_t t = 0;
  for (auto _ : state) {
    sim.cycle(b14_tb().vector(t));
    benchmark::DoNotOptimize(sim.node_word(0));
    t = (t + 1) % b14_tb().num_cycles();
  }
  // 64 machines per iteration.
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelSim_B14_Interpreted);

void BM_ParallelSim_B14_Compiled(benchmark::State& state) {
  ParallelSimulator sim(b14(), SimBackend::kCompiled);
  std::size_t t = 0;
  for (auto _ : state) {
    sim.cycle(b14_tb().vector(t));
    benchmark::DoNotOptimize(sim.node_word(0));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelSim_B14_Compiled);

void BM_LaneEngine512_B14(benchmark::State& state) {
  LaneEngine<Word512> sim(compile_kernel(b14()));
  std::size_t t = 0;
  for (auto _ : state) {
    sim.cycle(b14_tb().vector(t));
    benchmark::DoNotOptimize(sim.node_word(0));
    t = (t + 1) % b14_tb().num_cycles();
  }
  // 512 machines per iteration.
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_LaneEngine512_B14);

// ---- fault-grading campaigns ------------------------------------------------

void BM_SerialFaultSim_B14(benchmark::State& state) {
  SerialFaultSimulator sim(b14(), b14_tb());
  const auto faults = sample_fault_list(b14().num_dffs(),
                                        b14_tb().num_cycles(), 256, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());  // faults/s
}
BENCHMARK(BM_SerialFaultSim_B14)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_Interpreted(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(), {SimBackend::kInterpreted, LaneWidth::k64, 1});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_Interpreted)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_Compiled(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(), {SimBackend::kCompiled, LaneWidth::k64, 1});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_Compiled)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_Compiled512(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(), {SimBackend::kCompiled, LaneWidth::k512, 1});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_Compiled512)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_CompiledSharded(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(),
      {SimBackend::kCompiled, LaneWidth::k512, /*num_threads=*/0});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_CompiledSharded)
    ->Unit(benchmark::kMillisecond);

// ---- .bench reader ------------------------------------------------------------

// Parses a writer-produced netlist text; items are text lines, so the row
// reads as lines/s.
void read_bench_rows(benchmark::State& state, const Circuit& circuit) {
  const std::string text = write_bench_string(circuit);
  const auto lines = std::count(text.begin(), text.end(), '\n');
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_bench_string(text, circuit.name()));
  }
  state.SetItemsProcessed(state.iterations() * lines);
}

void BM_ReadBench_Pipe32x128(benchmark::State& state) {
  read_bench_rows(state, circuits::build_pipeline(32, 128));
}
BENCHMARK(BM_ReadBench_Pipe32x128)->Unit(benchmark::kMillisecond);

void BM_ReadBench_B14(benchmark::State& state) {
  read_bench_rows(state, b14());
}
BENCHMARK(BM_ReadBench_B14)->Unit(benchmark::kMillisecond);

// ---- netlist transforms -----------------------------------------------------

void BM_Instrument_TimeMux_B14(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(instrument_time_mux(b14()));
  }
}
BENCHMARK(BM_Instrument_TimeMux_B14)->Unit(benchmark::kMillisecond);

void BM_LutMapper_B14(benchmark::State& state) {
  const LutMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(b14()));
  }
  state.SetItemsProcessed(state.iterations() * b14().node_count());
}
BENCHMARK(BM_LutMapper_B14)->Unit(benchmark::kMillisecond);

void BM_LutMapper_TimeMuxInstrumented(benchmark::State& state) {
  const InstrumentedCircuit inst = instrument_time_mux(b14());
  const LutMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(inst.circuit));
  }
  state.SetItemsProcessed(state.iterations() * inst.circuit.node_count());
}
BENCHMARK(BM_LutMapper_TimeMuxInstrumented)->Unit(benchmark::kMillisecond);

void BM_CompileKernel_B14(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompiledKernel(b14()));
  }
  state.SetItemsProcessed(state.iterations() * b14().node_count());
}
BENCHMARK(BM_CompileKernel_B14);

void BM_RandomCircuitSim(benchmark::State& state) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.num_dffs = static_cast<std::size_t>(state.range(0));
  spec.num_gates = spec.num_dffs * 16;
  const Circuit circuit = circuits::build_random(spec, 42);
  const Testbench tb = random_testbench(circuit.num_inputs(), 64, 1);
  LevelizedSimulator sim(circuit);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(tb.vector(t)));
    t = (t + 1) % tb.num_cycles();
  }
  state.SetItemsProcessed(state.iterations() * circuit.num_gates());
}
BENCHMARK(BM_RandomCircuitSim)->Arg(16)->Arg(64)->Arg(256);

// Quick interpreted-vs-compiled race on the b14 campaign (single-threaded so
// the comparison isolates the eval kernel). Prints the speedup and soft-warns
// if the compiled kernel is ever slower — a regression canary, not an assert,
// because shared CI boxes can be noisy.
double time_campaign(SimBackend backend) {
  ParallelFaultSimulator sim(b14(), b14_tb(), {backend, LaneWidth::k64, 1});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  double best = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    (void)sim.run(faults);
    if (best < 0.0 || sim.last_run_seconds() < best) {
      best = sim.last_run_seconds();
    }
  }
  return best;
}

void report_speedup() {
  const double interpreted = time_campaign(SimBackend::kInterpreted);
  const double compiled = time_campaign(SimBackend::kCompiled);
  const double speedup = compiled > 0.0 ? interpreted / compiled : 0.0;
  std::fprintf(stderr,
               "b14 campaign (64 lanes, 1 thread): interpreted %.4fs, "
               "compiled %.4fs — %.2fx speedup\n",
               interpreted, compiled, speedup);
  if (speedup < 1.0) {
    std::fprintf(stderr,
                 "WARNING: compiled kernel is slower than the interpreted "
                 "baseline (%.2fx) — investigate before trusting perf "
                 "numbers\n",
                 speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Skip the (multi-second) speedup race for list/help invocations so
  // benchmark-discovery tooling stays fast.
  bool run_race = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg.rfind("--benchmark_list_tests", 0) == 0 ||
        arg.rfind("--benchmark_filter", 0) == 0) {
      run_race = false;  // targeted/list runs shouldn't pay for the race
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (run_race) report_speedup();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
