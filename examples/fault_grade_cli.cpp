// Command-line fault-grading driver — the "downstream user" entry point.
//
//   fault_grade_cli [circuit] [cycles] [technique] [sample] [seed]
//                   [--model seu|mbu|set|stuckat] [--pulse-width F]
//                   [--lanes 64|512]
//                   [--bench FILE] [--cache-dir DIR]
//                   [--journal PATH] [--resume] [--regrade-from SPEC]
//                   [--progress] [--trace-out FILE] [--metrics-out FILE]
//                   [--json]
//
//     circuit    registry name (see --list) or a .bench file path
//                [default: b14]
//     cycles     testbench length                     [default: 160]
//     technique  mask-scan | state-scan | time-mux | all [default: all]
//                (SEU model only — the emulation cost account)
//     sample     fault-sample size, 0 = complete list [default: 0]
//     seed       stimulus/sampling seed               [default: 2005]
//
//     --model    which fault model to grade [default: seu]
//                  seu      flip-flop bit-flips through the
//                           autonomous-emulation techniques (the paper's
//                           campaign + time account)
//                  mbu      multi-bit upsets (adjacent pairs, or sampled
//                           clusters) through the unified campaign engine
//                  set      single-event transients at combinational gate
//                           outputs (collapsed representative sites,
//                           expanded back to all sites in the report;
//                           sampled campaigns additionally report
//                           class-size-weighted 95% Wilson intervals over
//                           the all-sites population)
//                  stuckat  permanent stuck-at-0/1 at gate outputs with
//                           test-pattern semantics: failure == detected by
//                           this testbench, and the headline number is the
//                           fault coverage
//     --pulse-width F
//                SET only: transient pulse width as a fraction of the clock
//                period, discretised in 1/256 steps [default: 1.0 — the
//                classic full-cycle inversion]. Narrower pulses latch into
//                each downstream flip-flop only when they overlap its setup
//                window (probability == the fraction)
//     --lanes    grading-engine lane width: 64 or 512 faulty machines
//                per pass [default: 512]. 512 uses AVX-512 when the host
//                supports it and portable limbs otherwise; the chosen SIMD
//                path is reported in --json output ("simd")
//     --bench FILE
//                grade an external netlist in the ISCAS-89 .bench format
//                (netlist/bench_io.h) instead of a registry circuit. Any
//                extension works — unlike the positional form, which only
//                routes paths containing ".bench" to the parser
//     --cache-dir DIR
//                persist the campaign setup artifacts (golden trace,
//                FF-model optimized kernel) in DIR,
//                content-addressed by circuit/testbench/optimizer hashes
//                (fault/artifact_cache.h). The first campaign over a given
//                (circuit, testbench) pays setup and stores; later ones
//                load it back and skip the setup wall. Corrupt, stale or
//                foreign entries degrade to a warned rebuild; grading output
//                is bit-identical either way. Cache traffic is reported in
//                --json ("cache") and --metrics-out (artifact_cache_*)
//     --journal PATH
//                SEU only: run the campaign through the crash-safe journal
//                (fault/journal.h). Graded faults stream to PATH in
//                batches of at most one lane width, so a killed campaign leaves a resumable file; the
//                failure-signature dictionary is written to PATH.dict
//     --resume   with --journal: replay the journal's retired batches and
//                grade only the remainder — bit-identical to an
//                uninterrupted run. An invalid or mismatched journal
//                degrades to a warned full re-run
//     --regrade-from SPEC
//                with --journal: cone-exact incremental re-grade. SPEC is
//                the *previous* circuit revision (registry name or .bench
//                path) whose campaign wrote the journal; only faults whose
//                flip-flop cone touches the netlist edit are re-simulated,
//                the rest reuse their journaled classification, and the
//                journal is rewritten for the new revision
//     --progress live progress on stderr (rate-limited; \r redraw on a TTY)
//                plus a final summary line — total faults, wall seconds,
//                faults/s, peak lane-group occupancy. stdout is untouched,
//                so it composes with --json
//     --trace-out FILE
//                write a Chrome trace-event JSON of the campaign to FILE:
//                one track per worker with one slice per retire batch
//                (args: width, faults, occupancy %, instructions), a
//                campaign track with the serial phases (compile, golden
//                trace, plan, grade, ...), and
//                a journal track with per-batch flush spans. Open in
//                Perfetto (ui.perfetto.dev) or chrome://tracing
//     --metrics-out FILE
//                write the merged campaign metrics (counters, gauges,
//                histograms with p50/p90/p99) as JSON to FILE. Counters and
//                histogram bucket counts are bit-identical for any thread
//                count (worker-id-ordered reduction)
//     --json     machine-readable grading JSON on stdout instead of tables
//                (includes the model's descriptor name, the engine work
//                metrics — lane_occupancy, lane_cycle_occupancy,
//                eval_bytes_per_instr, the per-tier group counts — and, for
//                SET, the pulse parameters)
//
// The SEU model prints the grading with 95% confidence intervals and the
// emulation-time account per technique, and writes the per-fault dictionary
// CSV next to the binary; MBU, SET and stuck-at print the unified-engine
// grading.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/registry.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/autonomous_emulator.h"
#include "fault/dictionary.h"
#include "fault/journal.h"
#include "fault/model_traits.h"
#include "fault/parallel_faultsim.h"
#include "fault/sampling.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/bench_io.h"
#include "obs/telemetry.h"
#include "sim/simd_dispatch.h"
#include "stim/generate.h"

namespace {

using namespace femu;

Circuit load_circuit(const std::string& spec) {
  if (spec.find(".bench") != std::string::npos) {
    return load_bench_file(spec);
  }
  return circuits::build_by_name(spec);
}

std::vector<Technique> parse_techniques(const std::string& spec) {
  if (spec == "mask-scan") return {Technique::kMaskScan};
  if (spec == "state-scan") return {Technique::kStateScan};
  if (spec == "time-mux") return {Technique::kTimeMux};
  if (spec == "all") {
    return {kAllTechniques.begin(), kAllTechniques.end()};
  }
  throw Error(str_cat("unknown technique '", spec,
                      "' (mask-scan | state-scan | time-mux | all)"));
}

FaultModel parse_model(const std::string& spec) {
  if (spec == "seu") return FaultModel::kSeu;
  if (spec == "mbu") return FaultModel::kMbu;
  if (spec == "set") return FaultModel::kSet;
  if (spec == "stuckat") return FaultModel::kStuckAt;
  throw Error(str_cat("unknown fault model '", spec,
                      "' (seu | mbu | set | stuckat)"));
}

LaneWidth parse_lanes(const std::string& spec) {
  if (spec == "64") return LaneWidth::k64;
  if (spec == "512") return LaneWidth::k512;
  throw Error(str_cat("unknown lane width '", spec, "' (64 | 512)"));
}

/// ", \"lane_occupancy\": ..." — the engine work
/// metrics of the run that just finished, appended to every model's JSON.
std::string engine_metrics_json(const ParallelFaultSimulator& sim) {
  const auto& widths = sim.last_run_group_widths();
  const obs::CampaignTelemetry& t = sim.telemetry_snapshot();
  return str_cat(", \"lane_occupancy\": ", sim.last_run_lane_occupancy(),
                 ", \"lane_cycle_occupancy\": ", t.lane_cycle_occupancy,
                 ", \"eval_bytes_per_instr\": ",
                 sim.last_run_eval_bytes_per_instr(),
                 ", \"group_widths\": {\"64\": ", widths.g64,
                 ", \"512\": ", widths.g512,
                 "}, \"optimizer\": {\"enabled\": ",
                 t.opt_raw_instrs != 0 ? "true" : "false",
                 ", \"raw_instrs\": ", t.opt_raw_instrs,
                 ", \"instrs\": ", t.opt_instrs,
                 ", \"absorbed\": ", t.opt_absorbed,
                 ", \"folded\": ", t.opt_folded, ", \"dead\": ", t.opt_dead,
                 "}, \"cache\": {\"enabled\": ",
                 sim.config().cache_dir.empty() ? "false" : "true",
                 ", \"hits\": ", t.cache_hits, ", \"misses\": ",
                 t.cache_misses, ", \"bytes_read\": ", t.cache_bytes_read,
                 ", \"bytes_written\": ", t.cache_bytes_written,
                 ", \"load_seconds\": ", t.cache_load_seconds,
                 ", \"store_seconds\": ", t.cache_store_seconds, "}");
}

/// The SIMD path the configured lane width actually executes: the runtime
/// AVX-512/limb dispatch applies to 512-lane words; narrower words always
/// run the portable code.
const char* simd_path_of(LaneWidth lanes) {
  return lanes == LaneWidth::k512 ? word512_simd_path() : "portable";
}

/// Grading JSON shared by every model; `extra` is appended verbatim inside
/// the object (model-specific fields — pulse parameters, coverage,
/// sampling intervals — already formatted as ", \"key\": value" runs).
void write_grading_json(std::ostream& out, FaultModel model,
                        const Circuit& circuit, LaneWidth lanes,
                        std::size_t faults, const ClassCounts& counts,
                        double seconds, const std::string& extra = {}) {
  out << "{\"model\": \"" << fault_model_name(model)
      << "\", \"descriptor\": \"" << fault_model_descriptor(model)
      << "\", \"overlay_op\": \""
      << overlay_op_name(fault_model_overlay_op(model))
      << "\", \"circuit\": \"" << circuit.name()
      << "\", \"lanes\": " << lane_count(lanes)
      << ", \"simd\": \"" << simd_path_of(lanes) << "\", \"faults\": "
      << faults << ", \"seconds\": " << seconds
      << ", \"counts\": {\"failure\": " << counts.failure
      << ", \"latent\": " << counts.latent
      << ", \"silent\": " << counts.silent
      << "}, \"fractions\": {\"failure\": " << counts.failure_fraction()
      << ", \"latent\": " << counts.latent_fraction()
      << ", \"silent\": " << counts.silent_fraction() << "}" << extra
      << "}\n";
}

/// ", \"intervals\": {...}, \"effective_sample_size\": N" for a sampled
/// campaign's (possibly weighted) Wilson estimates.
std::string intervals_json(const SampledGrading& est) {
  const auto one = [](const char* name, const ProportionEstimate& e) {
    return str_cat("\"", name, "\": {\"fraction\": ", e.fraction,
                   ", \"low\": ", e.low, ", \"high\": ", e.high, "}");
  };
  return str_cat(", \"intervals\": {", one("failure", est.failure), ", ",
                 one("latent", est.latent), ", ", one("silent", est.silent),
                 "}, \"effective_sample_size\": ",
                 est.effective_sample_size);
}

void print_interval_lines(const SampledGrading& est) {
  const auto line = [](const char* name, const ProportionEstimate& e) {
    std::cout << "  " << name << ": " << format_percent(e.fraction) << "  ["
              << format_percent(e.low) << ", " << format_percent(e.high)
              << "]\n";
  };
  line("failure", est.failure);
  line("latent ", est.latent);
  line("silent ", est.silent);
}

void print_grading_table(FaultModel model, const ClassCounts& counts,
                         double seconds, std::size_t faults) {
  TextTable table({"model", "failure", "latent", "silent", "engine (ms)",
                   "us/fault"});
  table.add_row({std::string(fault_model_name(model)),
                 format_percent(counts.failure_fraction()),
                 format_percent(counts.latent_fraction()),
                 format_percent(counts.silent_fraction()),
                 format_fixed(seconds * 1e3, 2),
                 format_fixed(faults != 0 ? seconds * 1e6 / faults : 0.0, 3)});
  std::cout << table.to_ascii();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        // Remaining control characters can't appear in our messages; a
        // space keeps the output valid JSON regardless.
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
  }
  return out;
}

int run_seu_journaled(const Circuit& circuit, const Testbench& tb,
                      std::size_t cycles, std::size_t sample,
                      std::uint64_t seed, const CampaignConfig& config,
                      const std::string& journal_path, bool resume,
                      const std::string& regrade_spec, bool json) {
  const std::size_t total = circuit.num_dffs() * cycles;
  const auto faults =
      sample == 0 || sample >= total
          ? complete_fault_list(circuit.num_dffs(), cycles)
          : sample_fault_list(circuit.num_dffs(), cycles, sample, seed);

  ParallelFaultSimulator sim(circuit, tb, config);
  sim.set_capture_signatures(true);

  CampaignResult result;
  std::vector<std::uint64_t> signatures;
  std::string journal_extra;
  std::string warning;
  if (!regrade_spec.empty()) {
    const Circuit old_circuit = load_circuit(regrade_spec);
    RegradeReport rep = regrade_from_journal(sim, faults, old_circuit,
                                             journal_path, journal_path);
    result = std::move(rep.result);
    signatures = std::move(rep.signatures);
    warning = rep.warning;
    journal_extra = str_cat(
        ", \"regrade_from\": \"", json_escape(regrade_spec),
        "\", \"reused\": ", rep.reused, ", \"regraded\": ", rep.regraded,
        ", \"dirty_faults\": ", rep.dirty_faults,
        ", \"full_rerun\": ", rep.full_rerun ? "true" : "false");
    if (!json) {
      std::cout << "regrade from " << regrade_spec << ": " << rep.reused
                << " reused, " << rep.regraded << " re-graded ("
                << rep.dirty_faults << " in dirty cones)"
                << (rep.full_rerun ? " [degraded to full re-run]" : "")
                << "\n";
    }
  } else {
    JournaledCampaignReport rep =
        run_journaled_seu_campaign(sim, faults, journal_path, resume);
    result = std::move(rep.result);
    signatures = std::move(rep.signatures);
    warning = rep.warning;
    journal_extra = str_cat(
        ", \"resumed\": ", rep.resumed ? "true" : "false",
        ", \"replayed\": ", rep.replayed, ", \"graded\": ", rep.graded);
    if (!json) {
      std::cout << "journal " << journal_path << ": " << rep.replayed
                << " replayed, " << rep.graded << " graded\n";
    }
  }
  if (!warning.empty() && !json) {
    std::cout << "warning: " << warning << "\n";
  }

  const std::string dict_path = journal_path + ".dict";
  std::size_t dict_entries = 0;
  double dict_resolution = 0.0;
  {
    obs::PhaseSpan span(config.telemetry, "dictionary");
    const FaultDictionary dict = FaultDictionary::from_campaign(
        faults, result.outcomes(), signatures, sim.golden().outputs);
    dict.save_file(dict_path);
    dict_entries = dict.num_entries();
    dict_resolution = dict.resolution();
  }

  if (json) {
    const std::string extra = str_cat(
        ", \"journal\": {\"path\": \"", json_escape(journal_path), "\"",
        journal_extra, ", \"dictionary\": \"", json_escape(dict_path),
        "\", \"dictionary_entries\": ", dict_entries,
        ", \"warning\": \"", json_escape(warning), "\"}",
        engine_metrics_json(sim));
    write_grading_json(std::cout, FaultModel::kSeu, circuit, config.lanes,
                       faults.size(), result.counts(), sim.last_run_seconds(),
                       extra);
    return 0;
  }
  std::cout << "dictionary (" << dict_entries << " failure signatures, "
            << "resolution " << format_fixed(dict_resolution, 3)
            << ") written to " << dict_path << "\n\n";
  print_grading_table(FaultModel::kSeu, result.counts(),
                      sim.last_run_seconds(), faults.size());
  return 0;
}

int run_seu(const Circuit& circuit, const Testbench& tb, std::size_t cycles,
            const std::string& technique_spec, std::size_t sample,
            std::uint64_t seed, const CampaignConfig& config, bool json) {
  EmulatorOptions options;
  options.campaign = config;
  AutonomousEmulator emulator(circuit, tb, options);
  const std::size_t total = circuit.num_dffs() * cycles;
  const auto faults =
      sample == 0 || sample >= total
          ? complete_fault_list(circuit.num_dffs(), cycles)
          : sample_fault_list(circuit.num_dffs(), cycles, sample, seed);

  if (json) {
    const EmulationReport report =
        emulator.run(parse_techniques(technique_spec).front(), faults);
    write_grading_json(std::cout, FaultModel::kSeu, circuit, config.lanes,
                       faults.size(), report.grading.counts(),
                       report.emulation_seconds,
                       engine_metrics_json(emulator.engine()));
    return 0;
  }

  std::cout << "campaign: " << format_grouped(faults.size()) << " of "
            << format_grouped(total) << " single SEU faults, " << cycles
            << " vectors, seed " << seed << "\n\n";

  TextTable table({"technique", "failure", "latent", "silent",
                   "emulation (ms)", "us/fault"});
  bool first = true;
  for (const Technique technique : parse_techniques(technique_spec)) {
    const EmulationReport report = emulator.run(technique, faults);
    if (first) {
      const SampledGrading est = estimate_grading(report.grading);
      std::cout << "grading (95% Wilson interval";
      if (faults.size() == total) {
        std::cout << "; complete campaign, interval degenerate";
      }
      std::cout << "):\n";
      const auto line = [](const char* name, const ProportionEstimate& e) {
        std::cout << "  " << name << ": " << format_percent(e.fraction)
                  << "  [" << format_percent(e.low) << ", "
                  << format_percent(e.high) << "]\n";
      };
      line("failure", est.failure);
      line("latent ", est.latent);
      line("silent ", est.silent);
      std::cout << "\n";
      first = false;
    }
    const ClassCounts& c = report.grading.counts();
    table.add_row({std::string(technique_name(technique)),
                   format_percent(c.failure_fraction()),
                   format_percent(c.latent_fraction()),
                   format_percent(c.silent_fraction()),
                   format_fixed(report.emulation_seconds * 1e3, 2),
                   format_fixed(report.us_per_fault, 3)});
  }
  std::cout << table.to_ascii();

  const std::string csv_path = circuit.name() + "_grading.csv";
  std::ofstream csv(csv_path);
  emulator.run(Technique::kTimeMux, faults).grading.write_csv(csv);
  std::cout << "\nper-fault records written to " << csv_path << "\n";
  return 0;
}

int run_mbu(const Circuit& circuit, const Testbench& tb, std::size_t cycles,
            std::size_t sample, std::uint64_t seed,
            const CampaignConfig& config, bool json) {
  // Complete campaign: all adjacent FF pairs x all cycles (the dominant
  // physical MBU pattern); a sample draws random locality clusters instead.
  const auto faults =
      sample == 0
          ? adjacent_pair_fault_list(circuit.num_dffs(), cycles)
          : random_cluster_fault_list(circuit.num_dffs(), cycles,
                                     /*cluster_size=*/2, /*window=*/4, sample,
                                     seed);
  ParallelFaultSimulator sim(circuit, tb, config);
  const MbuCampaignResult result = sim.run_mbu(faults);
  if (json) {
    write_grading_json(std::cout, FaultModel::kMbu, circuit, config.lanes,
                       faults.size(), result.counts, sim.last_run_seconds(),
                       engine_metrics_json(sim));
    return 0;
  }
  std::cout << "campaign: " << format_grouped(faults.size()) << " MBU faults ("
            << (sample == 0 ? "adjacent pairs" : "sampled clusters") << "), "
            << cycles << " vectors, seed " << seed << "\n\n";
  print_grading_table(FaultModel::kMbu, result.counts, sim.last_run_seconds(),
                      faults.size());
  return 0;
}

int run_set(const Circuit& circuit, const Testbench& tb, std::size_t cycles,
            std::size_t sample, std::uint64_t seed,
            const CampaignConfig& config, std::uint16_t pulse_q, bool json) {
  const SetSites sites(circuit);
  const std::size_t total = sites.num_representatives() * cycles;
  const bool sampled = sample != 0 && sample < total;
  const auto faults =
      sampled ? sample_set_fault_list(sites, cycles, sample, seed, pulse_q)
              : complete_set_fault_list(sites, cycles, /*collapsed=*/true,
                                        pulse_q);
  ParallelFaultSimulator sim(circuit, tb, config);
  const SetCampaignResult rep_result = sim.run_set(faults);
  const double seconds = sim.last_run_seconds();
  // Representative sites stand for their whole equivalence class; the
  // reported grading is over the expanded (all-sites) campaign, and a
  // sampled campaign's Wilson intervals weight each representative by its
  // class size so they cover the all-sites population too.
  const SetCampaignResult expanded =
      expand_collapsed_result(sites, rep_result);
  const SampledGrading est =
      sampled ? estimate_set_grading(sites, rep_result) : SampledGrading{};
  if (json) {
    std::string extra = str_cat(", \"pulse_width\": ",
                                set_pulse_fraction(pulse_q),
                                ", \"pulse_q\": ", pulse_q,
                                engine_metrics_json(sim));
    if (sampled) {
      extra += intervals_json(est);
    }
    write_grading_json(std::cout, FaultModel::kSet, circuit, config.lanes,
                       expanded.faults.size(), expanded.counts, seconds,
                       extra);
    return 0;
  }
  std::cout << "campaign: " << format_grouped(faults.size())
            << " representative SET faults of "
            << format_grouped(sites.num_sites() * cycles) << " site-cycles ("
            << format_grouped(sites.num_sites()) << " gates collapsed to "
            << format_grouped(sites.num_representatives())
            << " classes), " << cycles << " vectors, seed " << seed;
  if (pulse_q < kSetPulseFull) {
    std::cout << ", pulse width " << format_percent(set_pulse_fraction(pulse_q))
              << " of the clock period";
  }
  std::cout << "\n\n";
  if (sampled) {
    std::cout << "grading (95% Wilson interval, class-size weighted over "
                 "all sites; effective n = "
              << format_fixed(est.effective_sample_size, 1) << "):\n";
    print_interval_lines(est);
    std::cout << "\n";
  }
  std::cout << "expanded to all sites:\n";
  print_grading_table(FaultModel::kSet, expanded.counts, seconds,
                      faults.size());
  return 0;
}

int run_stuckat(const Circuit& circuit, const Testbench& tb,
                std::size_t cycles, std::size_t sample, std::uint64_t seed,
                const CampaignConfig& config, bool json) {
  const SetSites sites(circuit);
  const std::size_t total = sites.num_representatives() * 2;
  const auto faults = sample == 0 || sample >= total
                          ? complete_stuckat_fault_list(sites)
                          : sample_stuckat_fault_list(sites, sample, seed);
  ParallelFaultSimulator sim(circuit, tb, config);
  const StuckAtCampaignResult rep_result = sim.run_stuckat(faults);
  const double seconds = sim.last_run_seconds();
  const StuckAtCampaignResult expanded =
      expand_collapsed_stuckat_result(sites, rep_result);
  if (json) {
    const std::string extra =
        str_cat(", \"fault_coverage\": ", expanded.fault_coverage(),
                engine_metrics_json(sim));
    write_grading_json(std::cout, FaultModel::kStuckAt, circuit, config.lanes,
                       expanded.faults.size(), expanded.counts, seconds,
                       extra);
    return 0;
  }
  std::cout << "campaign: " << format_grouped(faults.size())
            << " representative stuck-at faults of "
            << format_grouped(sites.num_sites() * 2) << " site-polarities ("
            << format_grouped(sites.num_sites()) << " gates collapsed to "
            << format_grouped(sites.num_representatives()) << " classes), "
            << cycles << " test vectors, seed " << seed << "\n\n";
  std::cout << "fault coverage (detected, all sites): "
            << format_percent(expanded.fault_coverage()) << "\n\n";
  std::cout << "expanded to all sites:\n";
  print_grading_table(FaultModel::kStuckAt, expanded.counts, seconds,
                      faults.size());
  return 0;
}

/// Writes the collected trace / metrics files once the campaign is done.
/// No-op with a null collector (no observability flag given).
void write_telemetry_outputs(obs::TelemetryCollector* telemetry,
                             const std::string& trace_out,
                             const std::string& metrics_out) {
  if (telemetry == nullptr) return;
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    FEMU_CHECK(out.good(), "cannot open trace output file '", trace_out, "'");
    telemetry->write_chrome_trace(out);
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    FEMU_CHECK(out.good(), "cannot open metrics output file '", metrics_out,
               "'");
    telemetry->write_metrics_json(out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace femu;
  // Detected before the try so the error handlers know the output format.
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      json = true;
    }
  }
  try {
    // Flags first (position-independent), positionals keep their order.
    std::vector<std::string> positional;
    std::string model_spec = "seu";
    std::string lanes_spec = "512";
    std::string bench_path;
    std::string cache_dir;
    std::string journal_path;
    std::string regrade_spec;
    std::string trace_out;
    std::string metrics_out;
    bool resume = false;
    bool progress = false;
    std::uint16_t pulse_q = kSetPulseFull;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--model" && i + 1 < argc) {
        model_spec = argv[++i];
      } else if (arg == "--lanes" && i + 1 < argc) {
        lanes_spec = argv[++i];
      } else if (arg == "--pulse-width" && i + 1 < argc) {
        pulse_q = set_pulse_q(std::stod(argv[++i]));
      } else if (arg == "--bench" && i + 1 < argc) {
        bench_path = argv[++i];
      } else if (arg == "--cache-dir" && i + 1 < argc) {
        cache_dir = argv[++i];
      } else if (arg == "--journal" && i + 1 < argc) {
        journal_path = argv[++i];
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--regrade-from" && i + 1 < argc) {
        regrade_spec = argv[++i];
      } else if (arg == "--progress") {
        progress = true;
      } else if (arg == "--trace-out" && i + 1 < argc) {
        trace_out = argv[++i];
      } else if (arg == "--metrics-out" && i + 1 < argc) {
        metrics_out = argv[++i];
      } else if (arg == "--json") {
        // already handled above
      } else {
        positional.push_back(arg);
      }
    }
    const std::string circuit_spec =
        !positional.empty() ? positional[0] : "b14";
    if (circuit_spec == "--list") {
      for (const auto& entry : circuits::circuit_registry()) {
        std::cout << "  " << entry.name << " — " << entry.description << "\n";
      }
      return 0;
    }
    const std::size_t cycles =
        positional.size() > 1 ? parse_count(positional[1], "cycles") : 160;
    const std::string technique_spec =
        positional.size() > 2 ? positional[2] : "all";
    const std::size_t sample =
        positional.size() > 3 ? parse_count(positional[3], "sample") : 0;
    const std::uint64_t seed =
        positional.size() > 4 ? parse_count(positional[4], "seed") : 2005;
    const FaultModel model = parse_model(model_spec);
    const LaneWidth lanes = parse_lanes(lanes_spec);

    const Circuit circuit = !bench_path.empty() ? load_bench_file(bench_path)
                                                 : load_circuit(circuit_spec);
    const Testbench tb = random_testbench(circuit.num_inputs(), cycles, seed);

    if (!json) {
      std::cout << "circuit : " << circuit.name() << " ("
                << circuit.num_inputs() << " PI / " << circuit.num_outputs()
                << " PO / " << circuit.num_dffs() << " FF, "
                << circuit.num_gates() << " gates), " << lane_count(lanes)
                << " lanes (" << simd_path_of(lanes) << ")\n";
    }
    if ((resume || !regrade_spec.empty()) && journal_path.empty()) {
      throw Error("--resume/--regrade-from require --journal <path>");
    }
    if (!journal_path.empty() && model != FaultModel::kSeu) {
      throw Error("--journal supports the seu model only");
    }

    // One collector for the whole invocation, created only when asked for —
    // a null pointer keeps the engine on its zero-cost fast path. It must
    // exist before the simulator so the construction phases (kernel compile,
    // golden trace) land on the campaign track.
    std::unique_ptr<obs::TelemetryCollector> telemetry;
    if (progress || !trace_out.empty() || !metrics_out.empty()) {
      telemetry = std::make_unique<obs::TelemetryCollector>();
      if (progress) {
        telemetry->enable_progress();
      }
    }

    CampaignConfig config;
    config.lanes = lanes;
    config.telemetry = telemetry.get();
    config.cache_dir = cache_dir;
    int rc = 0;
    switch (model) {
      case FaultModel::kSeu:
        rc = !journal_path.empty()
                 ? run_seu_journaled(circuit, tb, cycles, sample, seed, config,
                                     journal_path, resume, regrade_spec, json)
                 : run_seu(circuit, tb, cycles, technique_spec, sample, seed,
                           config, json);
        break;
      case FaultModel::kMbu:
        rc = run_mbu(circuit, tb, cycles, sample, seed, config, json);
        break;
      case FaultModel::kSet:
        rc = run_set(circuit, tb, cycles, sample, seed, config, pulse_q, json);
        break;
      case FaultModel::kStuckAt:
        rc = run_stuckat(circuit, tb, cycles, sample, seed, config, json);
        break;
    }
    write_telemetry_outputs(telemetry.get(), trace_out, metrics_out);
    return rc;
  } catch (const femu::Error& e) {
    if (json) {
      std::cout << "{\"error\": {\"message\": \"" << json_escape(e.what())
                << "\"";
      if (e.has_location()) {
        std::cout << ", \"file\": \"" << json_escape(e.file())
                  << "\", \"line\": " << e.line();
      }
      std::cout << "}}\n";
    }
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    if (json) {
      std::cout << "{\"error\": {\"message\": \"" << json_escape(e.what())
                << "\"}}\n";
    }
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
