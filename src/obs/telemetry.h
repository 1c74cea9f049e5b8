#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace femu::obs {

class TelemetryCollector;

/// Lane-width groups one run dealt to its pools, per width tier (the
/// engine keeps the alias ParallelFaultSimulator::GroupWidthCounts). Only
/// the run's lane width is non-zero; g256 has no lane width and reads 0.
struct GroupWidthCounts {
  std::uint64_t g64 = 0;
  std::uint64_t g256 = 0;
  std::uint64_t g512 = 0;
  [[nodiscard]] std::uint64_t total() const noexcept {
    return g64 + g256 + g512;
  }
};

/// Structured scalar snapshot of one campaign run plus the engine's one-time
/// construction phases. Always populated by the engine — no collector needed
/// — and the storage behind every `last_run_*` accessor. All work metrics
/// (cycles, instrs, bytes, lane-cycles, group counts, occupancies) are
/// deterministic: identical for any thread count, with telemetry attached
/// or not.
struct CampaignTelemetry {
  // Construction phases (timed once, in the engine constructor).
  double compile_seconds = 0.0;  ///< kernel compile (0 when interpreted)
  double golden_seconds = 0.0;   ///< golden trace capture
  double cone_seconds = 0.0;     ///< always 0: the engine builds no cones

  // Artifact cache (fault/artifact_cache.h) accounting for this engine's
  // construction; all zero when CampaignConfig::cache_dir is empty. One
  // lookup per construction: a hit adopts the whole entry, a miss (of any
  // flavor — absent, corrupt, version-skewed, foreign) rebuilds and stores.
  double cache_load_seconds = 0.0;   ///< key derivation + load + adoption
  double cache_store_seconds = 0.0;  ///< serialization + atomic store
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bytes_read = 0;
  std::uint64_t cache_bytes_written = 0;

  // Last run.
  double seconds = 0.0;
  unsigned threads = 1;
  std::uint64_t faults = 0;
  std::uint64_t eval_cycles = 0;
  std::uint64_t eval_instrs = 0;
  std::uint64_t eval_slot_bytes = 0;
  std::uint64_t narrowings = 0;  ///< always 0: the engine never narrows
  GroupWidthCounts group_widths;
  /// Faults ÷ lane slots of the groups dealt to pools.
  double lane_occupancy = 1.0;
  /// Lane-cycles that carried an ungraded fault, summed over every eval.
  std::uint64_t live_lane_cycles = 0;
  /// Useful ÷ attempted lane-cycles: live_lane_cycles ÷ (eval_cycles ×
  /// lane width).
  double lane_cycle_occupancy = 1.0;

  // Kernel optimizer (sim/kernel_opt.h) accounting for the kernel the last
  // run executed. All zero when the run executed the raw kernel (overlay
  // models, interpreted backend); opt_seconds counts only the lazy build of
  // the FF-model kernel (a run that reuses it reports the reduction at zero
  // cost).
  double opt_seconds = 0.0;          ///< optimizer pass time (cache misses)
  std::uint64_t opt_raw_instrs = 0;  ///< instruction count before passes
  std::uint64_t opt_instrs = 0;      ///< instruction count actually executed
  std::uint64_t opt_absorbed = 0;    ///< BUF/NOT absorbed into operand flags
  std::uint64_t opt_folded = 0;      ///< instructions folded to constants
  std::uint64_t opt_dead = 0;        ///< unobservable instructions eliminated

  [[nodiscard]] double bytes_per_instr() const noexcept {
    return eval_instrs != 0 ? static_cast<double>(eval_slot_bytes) /
                                  static_cast<double>(eval_instrs)
                            : 0.0;
  }
};

/// One worker's telemetry sink: a private metric shard plus a private trace
/// track. No locks, no atomics — a worker touches only its own
/// WorkerTelemetry during a run; the collector merges afterwards in
/// worker-id order (the determinism contract).
class WorkerTelemetry {
 public:
  /// Record one retire batch (at most one lane width of graded faults): a
  /// "group" trace slice on this worker's track (args: width, faults in the
  /// batch, narrowings, instrs executed since the previous batch) plus the
  /// shard metrics (group counters, width/occupancy/narrowing-depth
  /// histograms, duration histogram, peak-occupancy gauge) and the live
  /// progress heartbeat.
  void group_slice(std::uint64_t begin_ns, std::uint64_t end_ns,
                   std::uint32_t width, std::uint32_t live,
                   std::uint32_t narrowings, std::uint64_t instrs);

 private:
  friend class TelemetryCollector;
  TelemetryCollector* owner_ = nullptr;
  MetricShard shard_;
  TrackBuffer* track_ = nullptr;
};

/// Campaign-wide telemetry: the metric registry, the Chrome-trace recorder
/// and the optional live progress reporter, glued to the engine through one
/// raw pointer in CampaignConfig (null = telemetry off, the near-zero-cost
/// fast path — the engine takes no timestamps and records nothing per
/// group).
///
/// Lifecycle per run: the engine calls begin_run() before spawning workers
/// (pre-registers one trace track and one metric shard per worker), each
/// worker records through its WorkerTelemetry, and end_run() folds the
/// shards in worker-id order into the cumulative totals — so merged counter
/// and histogram totals of deterministic per-group observations are
/// bit-identical for any thread count. Wall-clock histograms (group/flush
/// durations) have deterministic counts but timing-dependent sums;
/// everything else in the snapshot is fully deterministic.
///
/// Thread-safety: begin_run/end_run/record_campaign_span run on the
/// campaign thread; worker(id) hands each worker its private sink;
/// record_flush is mutex-guarded (journal flushes come from any worker).
class TelemetryCollector {
 public:
  TelemetryCollector();

  /// Attach a live progress reporter (stderr); driven by group retirement.
  void enable_progress(std::uint64_t interval_ns = 200'000'000);

  /// Arm for a run: size the per-worker sinks and register their tracks.
  /// Must be called before worker threads spawn.
  void begin_run(unsigned num_workers, std::uint64_t total_faults);

  /// Worker `id`'s private sink (valid from begin_run to end_run).
  [[nodiscard]] WorkerTelemetry& worker(unsigned id) { return workers_[id]; }

  /// Fold the per-worker shards into the cumulative totals (worker-id
  /// order), then print the progress summary if progress is enabled.
  void end_run();

  /// Serial phase span on the campaign track (compile, golden, plan,
  /// grade, dictionary, ...). `name` must outlive the collector
  /// (string literal). Campaign-thread only.
  void record_campaign_span(const char* name, std::uint64_t begin_ns,
                            std::uint64_t end_ns);

  /// Journal flush slice + latency histogram sample. Any thread.
  void record_flush(std::uint64_t begin_ns, std::uint64_t end_ns);

  /// Kernel-optimizer accounting of the stream the run executes (gauges:
  /// last run wins — the stats describe a kernel, not an accumulation).
  /// Campaign-thread only, before workers spawn. All-zero when the run
  /// executes the raw kernel (overlay models, interpreted backend).
  void record_optimizer(std::uint64_t raw_instrs, std::uint64_t opt_instrs,
                        std::uint64_t absorbed, std::uint64_t folded,
                        std::uint64_t dead);

  /// Lane-cycle accounting of one run: counters `live_lane_cycles` and
  /// `lane_cycles` (evals × lane width) plus the gauge
  /// `lane_cycle_occupancy_ppm`, their cumulative ratio in parts per
  /// million. Campaign-thread only, after the workers finish.
  void record_lane_cycles(std::uint64_t live, std::uint64_t total);

  /// Artifact-cache accounting for one engine construction (counters —
  /// several constructions against one collector accumulate). Campaign-
  /// thread only.
  void record_cache(std::uint64_t hits, std::uint64_t misses,
                    std::uint64_t bytes_read, std::uint64_t bytes_written);

  /// Merged cumulative metrics (all completed runs + journal flushes).
  [[nodiscard]] MetricSnapshot snapshot() const;

  [[nodiscard]] const MetricRegistry& registry() const noexcept {
    return registry_;
  }

  /// Peak group occupancy (percent) across all runs so far.
  [[nodiscard]] std::uint64_t peak_occupancy_pct() const;

  [[nodiscard]] ProgressReporter* progress() noexcept {
    return progress_.get();
  }

  void write_chrome_trace(std::ostream& out) const {
    recorder_.write_chrome_trace(out);
  }
  void write_metrics_json(std::ostream& out) const;

 private:
  friend class WorkerTelemetry;

  MetricRegistry registry_;
  CounterId groups_retired_, faults_retired_, lanes_total_, narrowings_,
      eval_instrs_;
  CounterId c_cache_hits_, c_cache_misses_, c_cache_bytes_read_,
      c_cache_bytes_written_;
  CounterId c_live_lane_cycles_, c_lane_cycles_;
  GaugeId peak_occupancy_, g_lane_cycle_occupancy_;
  GaugeId g_opt_raw_instrs_, g_opt_instrs_, g_opt_absorbed_, g_opt_folded_,
      g_opt_dead_;
  HistogramId h_width_, h_occupancy_, h_narrow_depth_, h_group_ns_,
      h_flush_ns_;

  TraceRecorder recorder_;
  TrackBuffer* campaign_track_ = nullptr;
  TrackBuffer* journal_track_ = nullptr;

  std::vector<WorkerTelemetry> workers_;
  MetricShard total_;          ///< worker shards folded across runs
  MetricShard journal_shard_;  ///< flush metrics (guarded by journal_mutex_)
  std::mutex journal_mutex_;

  std::unique_ptr<ProgressReporter> progress_;
};

/// Scoped phase span: times a block on the campaign track. Null-safe — a
/// null collector makes construction and destruction free, so call sites
/// need no branching. `name` must be a string literal.
class PhaseSpan {
 public:
  PhaseSpan(TelemetryCollector* collector, const char* name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  TelemetryCollector* collector_;
  const char* name_;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace femu::obs
