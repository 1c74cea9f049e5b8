#pragma once

// Differential campaign harness: a fixed-seed case generator and one
// check_case that grades a case on every engine configuration and requires
// the fault model's serial reference simulator's outcomes, plus the
// engine's own invariants (retire coverage, signatures, work counters). A
// failing case shrinks to a minimal reproduction, printed as a C++ literal
// that can be pasted into a test.
//
// Adding a fault model means adding a Model<> entry below and its lists to
// make_case's list builder.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "common/rng.h"
#include "common/strings.h"
#include "fault/dictionary.h"
#include "fault/fault_list.h"
#include "fault/mbu.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/bench_io.h"
#include "obs/telemetry.h"
#include "stim/generate.h"

namespace femu::diff {

// ---- circuits --------------------------------------------------------------

/// A small circuit with one of everything the SET edge cases need: a live
/// path into a flip-flop, a live path straight to an output, a buf/not
/// chain (collapse fodder), a dead gate (no reader at all) and a gate whose
/// only reader logically masks it (AND with constant 0).
inline Circuit build_set_edge_circuit() {
  Circuit c("set_edge");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId r = c.add_dff("r");
  const NodeId live = c.add_and(a, b);      // latched into r
  c.connect_dff(r, live);
  const NodeId chain0 = c.add_xor(a, r);    // head of a buf/not chain
  const NodeId chain1 = c.add_buf(chain0);
  const NodeId chain2 = c.add_not(chain1);  // chain tail, drives the output
  c.add_output("o", chain2);
  const NodeId zero = c.add_const(false);
  const NodeId masked = c.add_or(a, b);     // only reader ANDs with 0
  const NodeId gate0 = c.add_and(masked, zero);
  c.add_output("z", gate0);
  c.add_or(a, r);                           // dead gate: no reader, no PO
  return c;
}

/// Builds a circuit from its case spec: a registry name, "s27" (the
/// checked-in ISCAS-89 fixture), "set_edge", "shift:<width>" or
/// "random:<inputs>,<outputs>,<dffs>,<gates>@<seed>".
inline Circuit build_circuit(std::string_view spec) {
  if (spec == "s27") {
    return load_bench_file(std::string(FEMU_TESTS_DIR) + "/s27.bench");
  }
  if (spec == "set_edge") return build_set_edge_circuit();
  if (starts_with(spec, "shift:")) {
    return circuits::build_shift_register(
        parse_count(spec.substr(6), "shift register width"));
  }
  if (starts_with(spec, "random:")) {
    const std::vector<std::string> parts = split(spec.substr(7), '@');
    const std::vector<std::string> dims = split(parts.at(0), ',');
    circuits::RandomCircuitSpec r;
    r.num_inputs = parse_count(dims.at(0), "inputs");
    r.num_outputs = parse_count(dims.at(1), "outputs");
    r.num_dffs = parse_count(dims.at(2), "dffs");
    r.num_gates = parse_count(dims.at(3), "gates");
    return circuits::build_random(r, parse_count(parts.at(1), "seed"));
  }
  return circuits::build_by_name(std::string(spec));
}

/// A testbench from '0'/'1' rows, one per cycle (BitVec::to_string order).
inline Testbench testbench_rows(std::size_t width,
                                const std::vector<std::string>& rows) {
  Testbench tb(width);
  for (const std::string& row : rows) tb.add_vector(BitVec::from_string(row));
  return tb;
}

// ---- fault models ----------------------------------------------------------

/// Per-model glue: the engine entry point, the serial reference, the
/// injection cycle and the C++ literal of one fault.
template <typename F>
struct Model;

template <>
struct Model<Fault> {
  static constexpr const char* kName = "seu";
  static constexpr const char* kType = "Fault";
  static constexpr bool kInterpreted = true;  // the oracle grades it too
  static constexpr bool kPermanent = false;
  static std::vector<FaultOutcome> engine(ParallelFaultSimulator& sim,
                                          const std::vector<Fault>& f) {
    return sim.run(f).outcomes();
  }
  static std::vector<FaultOutcome> serial(const Circuit& c,
                                          const Testbench& tb,
                                          const std::vector<Fault>& f) {
    return SerialFaultSimulator(c, tb).run(f).outcomes();
  }
  static std::uint32_t cycle(const Fault& f) { return f.cycle; }
  static std::string literal(const Fault& f) {
    return str_cat("{", f.ff_index, ", ", f.cycle, "}");
  }
};

template <>
struct Model<MbuFault> {
  static constexpr const char* kName = "mbu";
  static constexpr const char* kType = "MbuFault";
  static constexpr bool kInterpreted = true;
  static constexpr bool kPermanent = false;
  static std::vector<FaultOutcome> engine(ParallelFaultSimulator& sim,
                                          const std::vector<MbuFault>& f) {
    return sim.run_mbu(f).outcomes;
  }
  static std::vector<FaultOutcome> serial(const Circuit& c,
                                          const Testbench& tb,
                                          const std::vector<MbuFault>& f) {
    return MbuFaultSimulator(c, tb).run(f).outcomes;
  }
  static std::uint32_t cycle(const MbuFault& f) { return f.cycle; }
  static std::string literal(const MbuFault& f) {
    std::string ffs;
    for (const std::uint32_t ff : f.ff_indices) {
      ffs += str_cat(ffs.empty() ? "" : ", ", ff);
    }
    return str_cat("{{", ffs, "}, ", f.cycle, "}");
  }
};

template <>
struct Model<SetFault> {
  static constexpr const char* kName = "set";
  static constexpr const char* kType = "SetFault";
  static constexpr bool kInterpreted = false;  // overlay: compiled only
  static constexpr bool kPermanent = false;
  static std::vector<FaultOutcome> engine(ParallelFaultSimulator& sim,
                                          const std::vector<SetFault>& f) {
    return sim.run_set(f).outcomes;
  }
  static std::vector<FaultOutcome> serial(const Circuit& c,
                                          const Testbench& tb,
                                          const std::vector<SetFault>& f) {
    return SerialSetSimulator(c, tb).run(f).outcomes;
  }
  static std::uint32_t cycle(const SetFault& f) { return f.cycle; }
  static std::string literal(const SetFault& f) {
    return str_cat("{", f.node, ", ", f.cycle, ", ", f.pulse_q, "}");
  }
};

template <>
struct Model<StuckAtFault> {
  static constexpr const char* kName = "stuckat";
  static constexpr const char* kType = "StuckAtFault";
  static constexpr bool kInterpreted = false;
  static constexpr bool kPermanent = true;  // enters at 0, never converges
  static std::vector<FaultOutcome> engine(ParallelFaultSimulator& sim,
                                          const std::vector<StuckAtFault>& f) {
    return sim.run_stuckat(f).outcomes;
  }
  static std::vector<FaultOutcome> serial(
      const Circuit& c, const Testbench& tb,
      const std::vector<StuckAtFault>& f) {
    return SerialStuckAtSimulator(c, tb).run(f).outcomes;
  }
  static std::uint32_t cycle(const StuckAtFault&) { return 0; }
  static std::string literal(const StuckAtFault& f) {
    return str_cat("{", f.node, ", ", f.stuck_one ? "true" : "false", "}");
  }
};

using FaultList = std::variant<std::vector<Fault>, std::vector<MbuFault>,
                               std::vector<SetFault>,
                               std::vector<StuckAtFault>>;

template <typename List>
using ModelOf = Model<typename std::decay_t<List>::value_type>;

inline std::size_t fault_count(const FaultList& faults) {
  return std::visit([](const auto& f) { return f.size(); }, faults);
}

// ---- cases -----------------------------------------------------------------

struct Case {
  std::uint64_t seed = 0;
  std::string label;         ///< the generator's draw, for messages
  std::string circuit_spec;  ///< build_circuit() argument
  std::shared_ptr<const Circuit> circuit;
  Testbench tb{0};
  FaultList faults;
};

/// A case built by hand (or pasted from a shrink report).
inline Case hand_case(std::string circuit_spec, Testbench tb,
                      FaultList faults) {
  Case c;
  c.label = "hand";
  c.circuit = std::make_shared<const Circuit>(build_circuit(circuit_spec));
  c.circuit_spec = std::move(circuit_spec);
  c.tb = std::move(tb);
  c.faults = std::move(faults);
  return c;
}

/// The case as a paste-able C++ expression.
inline std::string case_literal(const Case& c) {
  std::ostringstream os;
  os << "diff::hand_case(\"" << c.circuit_spec << "\",\n"
     << "    diff::testbench_rows(" << c.tb.input_width() << ", {";
  for (std::size_t t = 0; t < c.tb.num_cycles(); ++t) {
    os << (t != 0 ? ", " : "") << '"' << c.tb.vector(t).to_string() << '"';
  }
  os << "}),\n";
  std::visit(
      [&](const auto& faults) {
        os << "    std::vector<" << ModelOf<decltype(faults)>::kType << ">{";
        for (std::size_t i = 0; i < faults.size(); ++i) {
          os << (i != 0 ? ", " : "")
             << ModelOf<decltype(faults)>::literal(faults[i]);
        }
      },
      c.faults);
  os << "})";
  return os.str();
}

// ---- engine configurations -------------------------------------------------

/// The compiled configurations every case runs: lanes {64, 512} x threads
/// {1, 4}.
inline std::vector<CampaignConfig> compiled_configs() {
  std::vector<CampaignConfig> configs;
  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k512}) {
    for (const unsigned threads : {1u, 4u}) {
      configs.push_back({SimBackend::kCompiled, lanes, threads});
    }
  }
  return configs;
}

/// "512x4t"-style label.
inline std::string config_name(const CampaignConfig& config) {
  return str_cat(config.backend == SimBackend::kInterpreted ? "interpreted "
                                                            : "",
                 lane_count(config.lanes), "x", config.num_threads, "t");
}

/// Grades `faults` on `sim` and returns the caller-aligned outcomes: the
/// seam a test replaces with a deliberately wrong engine.
using Grader = std::function<std::vector<FaultOutcome>(
    ParallelFaultSimulator& sim, const FaultList& faults)>;

inline std::vector<FaultOutcome> engine_grader(ParallelFaultSimulator& sim,
                                               const FaultList& faults) {
  return std::visit(
      [&](const auto& f) { return ModelOf<decltype(f)>::engine(sim, f); },
      faults);
}

/// The semantic invariants of one outcome of a fault injected at `cycle`
/// into a testbench of `num_cycles`; empty when they hold.
inline std::string outcome_invariant_error(const FaultOutcome& o,
                                           std::uint32_t cycle,
                                           std::size_t num_cycles,
                                           bool permanent) {
  switch (o.cls) {
    case FaultClass::kFailure:
      if (o.detect_cycle < cycle || o.detect_cycle >= num_cycles ||
          o.converge_cycle != kNoCycle) {
        return "failure needs detect_cycle in [cycle, T) and no converge";
      }
      return "";
    case FaultClass::kSilent:
      if (o.detect_cycle != kNoCycle) return "silent with a detect_cycle";
      if (permanent || num_cycles == 0) {
        // A permanent fault never goes away, so it never converges.
        return o.converge_cycle == kNoCycle ? "" : "permanent fault converged";
      }
      if (o.converge_cycle <= cycle || o.converge_cycle > num_cycles) {
        return "silent needs converge_cycle in (cycle, T]";
      }
      return "";
    case FaultClass::kLatent:
      if (o.detect_cycle != kNoCycle || o.converge_cycle != kNoCycle) {
        return "latent with a detect or converge cycle";
      }
      return "";
  }
  return "unknown class";
}

/// Cycles a fault's lane is live: injection through its retire cycle.
inline std::uint64_t lifetime(const FaultOutcome& o, std::uint32_t cycle,
                              std::size_t num_cycles) {
  if (num_cycles == 0) return 0;
  if (o.cls == FaultClass::kFailure) return o.detect_cycle - cycle + 1;
  if (o.cls == FaultClass::kSilent && o.converge_cycle != kNoCycle) {
    return o.converge_cycle - cycle;
  }
  return num_cycles - cycle;
}

inline std::string outcome_text(const FaultOutcome& o) {
  const auto at = [](std::uint32_t c) {
    return c == kNoCycle ? std::string("-") : std::to_string(c);
  };
  return str_cat("{", fault_class_name(o.cls), " detect=", at(o.detect_cycle),
                 " converge=", at(o.converge_cycle), "}");
}

/// Grades `c` on every configuration and returns the first disagreement,
/// or an empty string when every check holds:
///   - outcomes equal the model's serial reference, which satisfies the
///     outcome invariants;
///   - every caller index reaches the retire callback exactly once, with
///     the returned outcome and signature;
///   - failure signatures agree across configurations (and, for SEU, with
///     FaultDictionary::build);
///   - work counters agree across thread counts and with telemetry
///     attached, live lane-cycles equal the faults' lifetimes, group widths
///     follow the lane width, and the telemetry counts every retirement.
inline std::string check_case(const Case& c,
                              const Grader& grader = engine_grader) {
  return std::visit([&](const auto& faults) -> std::string {
    using M = ModelOf<decltype(faults)>;
    const Circuit& circuit = *c.circuit;
    const std::size_t n = faults.size();
    const std::size_t num_cycles = c.tb.num_cycles();
    const auto fault_text = [&](std::size_t i) {
      return str_cat("fault #", i, " ", M::literal(faults[i]));
    };

    const std::vector<FaultOutcome> ref = M::serial(circuit, c.tb, faults);
    std::uint64_t lifetimes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t cycle = M::cycle(faults[i]);
      const std::string bad = outcome_invariant_error(ref[i], cycle,
                                                      num_cycles,
                                                      M::kPermanent);
      if (!bad.empty()) {
        return str_cat("serial ", M::kName, " reference ", fault_text(i),
                       " ", outcome_text(ref[i]), ": ", bad);
      }
      lifetimes += lifetime(ref[i], cycle, num_cycles);
    }
    std::vector<std::uint64_t> dict_sigs;
    if constexpr (std::is_same_v<decltype(faults), const std::vector<Fault>&>) {
      const FaultDictionary dict = FaultDictionary::build(circuit, c.tb,
                                                          faults);
      for (const Fault& f : faults) {
        dict_sigs.push_back(dict.signature_of(f).syndrome_hash);
      }
    }

    // Runs: 64- and 512-lane baselines first, then the hooked runs, the
    // over-provisioned thread count, telemetry, and the interpreted oracle.
    struct Run {
      CampaignConfig config;
      bool hooks;  // retire callback + signature capture
      bool telemetry;
    };
    // Pools per lane width, as the engine deals them: P = min(G, max(4,
    // ceil(G / 32))) for G lane groups; at most P workers run.
    const auto pool_count = [&](std::size_t width) {
      const std::size_t groups = (n + width - 1) / width;
      return std::min(groups, std::max<std::size_t>(4, (groups + 31) / 32));
    };
    std::vector<Run> runs;
    for (const CampaignConfig& config : compiled_configs()) {
      runs.push_back({config, config.num_threads != 1, false});
    }
    runs.push_back({{SimBackend::kCompiled, LaneWidth::k512,
                     static_cast<unsigned>(pool_count(512) + 1)},
                    true, false});
    runs.push_back({{SimBackend::kCompiled, LaneWidth::k512, 4}, true, true});
    if (M::kInterpreted) {
      // Default lanes (512): the oracle must ignore them and run 64.
      runs.push_back({{SimBackend::kInterpreted, LaneWidth::k512, 1}, true,
                      false});
    }

    obs::CampaignTelemetry base64, base512;
    bool have64 = false, have512 = false;
    std::vector<std::uint64_t> base_sigs;
    for (const Run& run : runs) {
      const bool interpreted = run.config.backend == SimBackend::kInterpreted;
      const std::string name =
          str_cat(M::kName, " ", config_name(run.config),
                  run.telemetry ? "+telemetry" : "");
      // Declared before the engine, which holds pointers to all of them.
      obs::TelemetryCollector collector;
      std::mutex mutex;  // guards the three retire logs below
      std::vector<std::uint32_t> seen(n, 0);
      std::vector<FaultOutcome> streamed(n);
      std::vector<std::uint64_t> streamed_sigs(n, 0);
      CampaignConfig config = run.config;
      if (run.telemetry) config.telemetry = &collector;
      ParallelFaultSimulator sim(circuit, c.tb, config);
      if (run.hooks) {
        sim.set_capture_signatures(true);
        sim.set_retire_callback([&](std::span<const std::uint32_t> indices,
                                    std::span<const FaultOutcome> outcomes,
                                    std::span<const std::uint64_t> sigs) {
          std::lock_guard<std::mutex> lock(mutex);
          for (std::size_t k = 0; k < indices.size(); ++k) {
            if (indices[k] >= n) continue;  // reported as a missing index
            ++seen[indices[k]];
            streamed[indices[k]] = outcomes[k];
            if (k < sigs.size()) streamed_sigs[indices[k]] = sigs[k];
          }
        });
      }

      const std::vector<FaultOutcome> got = grader(sim, c.faults);
      if (got.size() != n) {
        return str_cat(name, ": ", got.size(), " outcomes for ", n,
                       " faults");
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (got[i] != ref[i]) {
          return str_cat(name, ": ", fault_text(i), " graded ",
                         outcome_text(got[i]), ", serial reference ",
                         outcome_text(ref[i]));
        }
      }

      if (run.hooks) {
        const std::span<const std::uint64_t> sigs = sim.last_run_signatures();
        if (sigs.size() != n) {
          return str_cat(name, ": ", sigs.size(), " signatures for ", n,
                         " faults");
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (seen[i] != 1) {
            return str_cat(name, ": ", fault_text(i), " reached the retire "
                           "callback ", seen[i], " times");
          }
          if (streamed[i] != got[i] || streamed_sigs[i] != sigs[i]) {
            return str_cat(name, ": ", fault_text(i), " retired as ",
                           outcome_text(streamed[i]), " but the run "
                           "returned ", outcome_text(got[i]));
          }
          if ((got[i].cls != FaultClass::kFailure) != (sigs[i] == 0)) {
            return str_cat(name, ": ", fault_text(i), " ",
                           outcome_text(got[i]), " has signature ", sigs[i]);
          }
          if (!dict_sigs.empty() && got[i].cls == FaultClass::kFailure &&
              sigs[i] != dict_sigs[i]) {
            return str_cat(name, ": ", fault_text(i), " signature ", sigs[i],
                           ", FaultDictionary ", dict_sigs[i]);
          }
          if (!base_sigs.empty() && sigs[i] != base_sigs[i]) {
            return str_cat(name, ": ", fault_text(i), " signature ", sigs[i],
                           ", other configurations ", base_sigs[i]);
          }
        }
        base_sigs.assign(sigs.begin(), sigs.end());
      }

      const obs::CampaignTelemetry& t = sim.telemetry_snapshot();
      if (t.live_lane_cycles != lifetimes) {
        return str_cat(name, ": live_lane_cycles ", t.live_lane_cycles,
                       ", fault lifetimes sum to ", lifetimes);
      }
      const std::size_t width = interpreted ? 64 : lane_count(config.lanes);
      const std::uint64_t groups = (n + width - 1) / width;
      if (t.group_widths.g64 != (width == 64 ? groups : 0) ||
          t.group_widths.g256 != 0 ||
          t.group_widths.g512 != (width == 512 ? groups : 0)) {
        return str_cat(name, ": group widths 64:", t.group_widths.g64,
                       " 512:", t.group_widths.g512, ", expected ", groups,
                       " of width ", width);
      }
      if (t.threads > std::max<std::size_t>(pool_count(width), 1)) {
        return str_cat(name, ": ", t.threads, " workers for ",
                       pool_count(width), " pools");
      }
      obs::CampaignTelemetry& base = width == 64 ? base64 : base512;
      bool& have = width == 64 ? have64 : have512;
      if (!have) {
        base = t;
        have = true;
      } else if (t.eval_cycles != base.eval_cycles ||
                 (!interpreted &&
                  (t.eval_instrs != base.eval_instrs ||
                   t.eval_slot_bytes != base.eval_slot_bytes))) {
        return str_cat(name, ": work counters (eval_cycles ", t.eval_cycles,
                       ", eval_instrs ", t.eval_instrs, ", eval_slot_bytes ",
                       t.eval_slot_bytes, ") differ from ", base.eval_cycles,
                       ", ", base.eval_instrs, ", ", base.eval_slot_bytes,
                       " at the same lane width");
      }
      if (run.telemetry) {
        const obs::MetricSnapshot snap = collector.snapshot();
        const auto names = collector.registry().counter_names();
        const auto it = std::find(names.begin(), names.end(),
                                  "faults_retired");
        const std::uint64_t retired =
            it == names.end()
                ? 0
                : snap.counters[static_cast<std::size_t>(it - names.begin())];
        if (retired != n) {
          return str_cat(name, ": faults_retired counter ", retired, " for ",
                         n, " faults");
        }
      }
    }
    return std::string();
  }, c.faults);
}

// ---- shrinking -------------------------------------------------------------

/// The case cut to its first `cycles` testbench cycles, without the faults
/// injected in the cut-off ones.
inline Case truncated(const Case& c, std::size_t cycles) {
  Case out = c;
  out.tb = Testbench(c.tb.input_width());
  for (std::size_t t = 0; t < cycles; ++t) out.tb.add_vector(c.tb.vector(t));
  std::visit(
      [&](auto& faults) {
        std::erase_if(faults, [&](const auto& f) {
          return ModelOf<decltype(faults)>::cycle(f) >= cycles;
        });
      },
      out.faults);
  return out;
}

/// Shrinks a failing case: drops chunks of faults (halving the chunk size
/// down to single faults, back to front, so the earliest failing fault in
/// list order survives), then trailing testbench cycles, until neither step
/// makes progress. The result still fails check_case.
inline Case shrink(Case c, const Grader& grader = engine_grader) {
  const auto fails = [&](const Case& x) {
    return !check_case(x, grader).empty();
  };
  for (bool progress = true; progress;) {
    progress = false;
    std::visit(
        [&](auto& faults) {
          for (std::size_t chunk = std::max<std::size_t>(faults.size() / 2, 1);
               chunk >= 1; chunk /= 2) {
            for (std::size_t end = faults.size(); end > 0;) {
              const std::size_t begin = end > chunk ? end - chunk : 0;
              Case trial = c;
              auto& list = std::get<std::decay_t<decltype(faults)>>(
                  trial.faults);
              list.erase(list.begin() + static_cast<std::ptrdiff_t>(begin),
                         list.begin() + static_cast<std::ptrdiff_t>(end));
              if (fails(trial)) {
                faults = std::move(list);
                progress = true;
              }
              end = begin;
            }
          }
        },
        c.faults);
    for (std::size_t cycles = 0; cycles < c.tb.num_cycles(); ++cycles) {
      Case trial = truncated(c, cycles);
      if (fails(trial)) {
        c = std::move(trial);
        progress = true;
        break;
      }
    }
  }
  return c;
}

/// check_case plus, on failure, the shrunk reproduction: the case's seed,
/// the first disagreement, and the minimal case as a C++ literal. Empty
/// when the case passes.
inline std::string run_case(const Case& c,
                            const Grader& grader = engine_grader) {
  const std::string first = check_case(c, grader);
  if (first.empty()) return first;
  const Case small = shrink(c, grader);
  return str_cat("case seed ", c.seed, " (", c.label, "): ", first,
                 "\nshrunk to ", fault_count(small.faults), " faults, ",
                 small.tb.num_cycles(), " cycles: ", check_case(small, grader),
                 "\nreproduce with:\n  EXPECT_EQ(diff::check_case(",
                 case_literal(small), "), \"\");\n");
}

// ---- generator -------------------------------------------------------------

inline constexpr const char* kCircuitKinds[] = {"registry", "s27", "random",
                                                "shift", "set_edge"};
inline constexpr const char* kTestbenchKinds[] = {"random", "weighted",
                                                  "burst", "zero"};
inline constexpr const char* kModelKinds[] = {"seu", "mbu", "set",
                                              "stuckat"};
inline constexpr const char* kListKinds[] = {
    "complete", "sampled", "uncollapsed", "duplicated",
    "shuffled", "last-cycle", "empty", "prefix"};

/// Which circuits a generated case draws from.
enum class Scope {
  kSmall,  ///< registry (small ones), s27, random, shift register, SET edge
  kB14,    ///< the paper's b14, for the *Slow* suite
};

/// The case of `seed`. The model is seed % 4 and the list kind
/// (seed / 4) % 8, so 32 consecutive seeds cover every pair; the circuit,
/// testbench, sizes and sampling seeds are drawn from Rng(seed).
/// Models without collapse draw their complete list for "uncollapsed", and
/// stuck-at (no injection cycle) draws it for "last-cycle". SET faults
/// carry mixed pulse widths, full-width among them.
inline Case make_case(std::uint64_t seed, Scope scope = Scope::kSmall) {
  static constexpr const char* kSmallRegistry[] = {
      "b01_like", "b02_like", "b03_like", "b04_like", "b06_like",
      "b08_like", "b09_like", "b10_like", "b13_like", "counter16",
      "lfsr32",   "pipe4x16"};
  static constexpr std::size_t kPrefixSizes[] = {1,   63,  64, 65,
                                                 511, 512, 513};
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  const std::size_t model = seed % 4;
  const std::size_t kind = (seed / 4) % 8;

  std::string circuit_kind = "registry";
  std::string spec = "b14";
  if (scope == Scope::kSmall) {
    circuit_kind = kCircuitKinds[rng.below(5)];
    if (circuit_kind == "set_edge" && model == 1) {
      circuit_kind = "s27";  // an MBU needs two flip-flops
    }
    if (circuit_kind == "registry") {
      spec = kSmallRegistry[rng.below(std::size(kSmallRegistry))];
    } else if (circuit_kind == "random") {
      spec = str_cat("random:", 2 + rng.below(6), ",", 1 + rng.below(5), ",",
                     2 + rng.below(22), ",", 20 + rng.below(180), "@",
                     rng.below(1000));
    } else if (circuit_kind == "shift") {
      spec = str_cat("shift:", 2 + rng.below(9));
    } else {
      spec = circuit_kind;
    }
  }

  Case c;
  c.seed = seed;
  c.circuit_spec = spec;
  c.circuit = std::make_shared<const Circuit>(build_circuit(spec));
  const Circuit& circuit = *c.circuit;
  const std::size_t cycles =
      scope == Scope::kB14 ? 24 + rng.below(49)
      : (model == 3 && rng.below(8) == 0) ? 0  // stuck-at only: no cycles
                                          : 1 + rng.below(32);
  const std::size_t tb_kind = rng.below(4);
  const std::uint64_t tb_seed = rng.below(1u << 20);
  const std::size_t width = circuit.num_inputs();
  switch (tb_kind) {
    case 0: c.tb = random_testbench(width, cycles, tb_seed); break;
    case 1:
      c.tb = weighted_testbench(width, cycles, 0.1 + 0.8 * rng.next_double(),
                                tb_seed);
      break;
    case 2:
      c.tb = burst_testbench(width, cycles, 1 + rng.below(6), tb_seed);
      break;
    default: c.tb = zero_testbench(width, cycles); break;
  }

  const std::size_t num_ffs = circuit.num_dffs();
  const std::uint32_t last = static_cast<std::uint32_t>(cycles) - 1;
  const std::uint64_t list_seed = rng.below(1u << 20);
  const std::size_t max_sample = scope == Scope::kB14 ? 2000 : 600;
  const auto sample_size = [&](std::size_t total) -> std::size_t {
    return total == 0 ? 0 : 1 + rng.below(std::min(total, max_sample));
  };
  const SetSites sites(circuit);
  // The model's lists: complete (collapsed) and uncollapsed, sampled,
  // and one fault per site at the last cycle.
  const auto build = [&](auto complete, auto uncollapsed, auto sampled,
                         auto at_last) {
    auto all = complete();
    using List = decltype(all);
    List faults;
    switch (kind) {
      case 0: faults = all; break;
      case 1: faults = sampled(sample_size(all.size())); break;
      case 2: faults = uncollapsed(); break;
      case 3:
        // Every fault of a sample repeated in a row: duplicates share a
        // lane group.
        if (all.empty()) break;
        for (const auto& f : sampled(sample_size(all.size()) / 4 + 1)) {
          faults.insert(faults.end(), 2 + rng.below(3), f);
        }
        break;
      case 4:
        faults = all;
        for (std::size_t i = faults.size(); i > 1; --i) {
          std::swap(faults[i - 1], faults[rng.below(i)]);
        }
        break;
      case 5: faults = cycles == 0 ? List{} : at_last(); break;
      case 6: break;
      default: {
        const std::size_t size = kPrefixSizes[rng.below(7)];
        for (std::size_t i = 0; i < size && !all.empty(); ++i) {
          faults.push_back(all[i % all.size()]);
        }
      }
    }
    return faults;
  };

  switch (model) {
    case 0:
      c.faults = build(
          [&] { return complete_fault_list(num_ffs, cycles); },
          [&] { return complete_fault_list(num_ffs, cycles); },
          [&](std::size_t k) {
            return k == 0 ? std::vector<Fault>{}
                          : sample_fault_list(num_ffs, cycles, k, list_seed);
          },
          [&] {
            std::vector<Fault> f;
            for (std::uint32_t ff = 0; ff < num_ffs; ++ff) {
              f.push_back({ff, last});
            }
            return f;
          });
      break;
    case 1: {
      const std::size_t cluster = num_ffs >= 3 ? 2 + rng.below(2) : 2;
      const std::size_t window = cluster + rng.below(4);
      c.faults = build(
          [&] { return adjacent_pair_fault_list(num_ffs, cycles); },
          [&] { return adjacent_pair_fault_list(num_ffs, cycles); },
          [&](std::size_t k) {
            return random_cluster_fault_list(num_ffs, cycles, cluster, window,
                                             k, list_seed);
          },
          [&] {
            std::vector<MbuFault> f;
            for (std::uint32_t ff = 0; ff + 1 < num_ffs; ++ff) {
              f.push_back({{ff, ff + 1}, last});
            }
            return f;
          });
      break;
    }
    case 2: {
      std::vector<SetFault> faults = build(
          [&] { return complete_set_fault_list(sites, cycles); },
          [&] { return complete_set_fault_list(sites, cycles, false); },
          [&](std::size_t k) {
            return k == 0 ? std::vector<SetFault>{}
                          : sample_set_fault_list(sites, cycles, k, list_seed);
          },
          [&] {
            std::vector<SetFault> f;
            for (const NodeId rep : sites.representatives()) {
              f.push_back({rep, last});
            }
            return f;
          });
      for (SetFault& f : faults) {
        f.pulse_q = rng.below(3) == 0
                        ? kSetPulseFull
                        : static_cast<std::uint16_t>(rng.below(257));
      }
      c.faults = std::move(faults);
      break;
    }
    default:
      c.faults = build(
          [&] { return complete_stuckat_fault_list(sites); },
          [&] { return complete_stuckat_fault_list(sites, false); },
          [&](std::size_t k) {
            return k == 0 ? std::vector<StuckAtFault>{}
                          : sample_stuckat_fault_list(sites, k, list_seed);
          },
          [&] { return complete_stuckat_fault_list(sites); });
  }
  c.label = str_cat(spec, "; ", kTestbenchKinds[tb_kind], " testbench x ",
                    cycles, "; ", kModelKinds[model], "; ", kListKinds[kind],
                    " list of ", fault_count(c.faults));
  return c;
}

/// The b14 cases of the *Slow* suites, as make_case(seed, Scope::kB14)
/// seeds: every model on the complete, sampled, duplicated, shuffled,
/// last-cycle and prefix lists. Left out: the complete-size SET and
/// stuck-at lists (seeds 2, 3, 10, 11, 18, 19, 23), whose serial references
/// alone take 3-9 s each, the complete shuffled SEU list (16, 2 s), and
/// SEU/MBU "uncollapsed" (8, 9), which repeats their complete lists.
inline constexpr std::uint64_t kB14Seeds[] = {
    0, 1, 4, 5, 6, 7, 12, 13, 14, 15, 17, 20, 21, 22, 28, 29, 30, 31};

/// run_case over the kB14Seeds cases of `model` (seed % 4, an index into
/// kModelKinds): the reports of the failing cases, empty when all pass.
/// Each model's cases run in the *Slow* suite of that model's test source.
inline std::string run_b14_cases(std::size_t model) {
  std::string reports;
  for (const std::uint64_t seed : kB14Seeds) {
    if (seed % 4 != model) continue;
    reports += run_case(make_case(seed, Scope::kB14));
  }
  return reports;
}

}  // namespace femu::diff
