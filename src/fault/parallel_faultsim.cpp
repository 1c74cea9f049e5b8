#include "fault/parallel_faultsim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "fault/artifact_cache.h"
#include "fault/journal.h"
#include "sim/golden_slots.h"
#include "sim/kernel_opt.h"
#include "sim/parallel_sim.h"

namespace femu {

namespace {

// The engine core below is model-agnostic: every model-specific question —
// injection mechanism, overlay op and cadence, schedule key, retirement
// rule — is answered by the FaultModelTraits descriptor through a ModelView
// (fault/model_traits.h). The pool runner specializes per model purely via
// `if constexpr` on the view's flags, so SEU/MBU instantiations carry no
// overlay, thinning or every-cycle code at all.

/// Sorts an overlay by dest slot and composes entries landing on the same
/// gate (several lanes faulting the same site this cycle — possibly with
/// different ops), as required by eval_instrs_overlay: applying (k1,f1)
/// then (k2,f2) folds into the single masked update (k1&k2, (f1&k2)^f2).
template <typename Word>
void finalize_overlay(std::vector<CompiledKernel::OverlayEntry<Word>>& ov) {
  std::sort(ov.begin(), ov.end(),
            [](const auto& a, const auto& b) { return a.dest < b.dest; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < ov.size(); ++i) {
    if (out != 0 && ov[out - 1].dest == ov[i].dest) {
      ov[out - 1].flip = (ov[out - 1].flip & ov[i].keep) ^ ov[i].flip;
      ov[out - 1].keep &= ov[i].keep;
    } else {
      ov[out++] = ov[i];
    }
  }
  ov.resize(out);
}

/// Cycle-major schedule permutation: perm[i] is the caller index of the
/// i-th fault in engine order, sorted stably by the packed (cycle, site)
/// key, so each pool injects its faults in cycle order and every group
/// spans a minimal injection-cycle range. Counting-sorted when the key
/// space is dense (the
/// complete-campaign case), comparison-sorted otherwise.
template <typename KeyOf>
[[nodiscard]] std::vector<std::uint32_t> cycle_major_perm(
    std::size_t n, const KeyOf& key_of) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> keys(n);
  std::uint64_t max_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = key_of(i);
    max_key = std::max(max_key, keys[i]);
  }
  // Counting sort: O(n + buckets), stable by construction. The bucket space
  // is about the size of the complete fault list, but a sparse sample of a
  // huge campaign could make it balloon (4 bytes per bucket), so fall back
  // to a comparison sort when buckets would dwarf the fault count.
  if (max_key <= 16 * keys.size() + 4096) {
    std::vector<std::uint32_t> counts(max_key + 2, 0);
    for (const std::uint64_t k : keys) ++counts[k + 1];
    for (std::size_t k = 1; k < counts.size(); ++k) {
      counts[k] += counts[k - 1];
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      perm[counts[keys[i]]++] = static_cast<std::uint32_t>(i);
    }
  } else {
    std::sort(perm.begin(), perm.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return std::pair{keys[x], x} < std::pair{keys[y], y};
              });
  }
  return perm;
}

/// Pool sizing: the G lane-width groups of a run are dealt round-robin to
/// min(G, max(kMinPools, ⌈G / kGroupsPerPool⌉)) lane-refilling pools. The
/// count depends only on the fault list, so every work counter is identical
/// for any thread count. Each pool runs to the end of the testbench once it
/// holds a latent fault, so total work grows with P (b14 complete SEU:
/// 5618 eval cycles at P = 4, 7856 at 8, 15176 at P = G) while at most P
/// workers run; kMinPools = 4 favours total work over wider hosts. See
/// DESIGN.md, "Pool count".
constexpr std::size_t kMinPools = 4;
constexpr std::size_t kGroupsPerPool = 32;

[[nodiscard]] std::size_t pool_count(std::size_t num_groups) {
  const std::size_t by_size =
      (num_groups + kGroupsPerPool - 1) / kGroupsPerPool;
  return std::min(num_groups, std::max(kMinPools, by_size));
}

/// Calls f(lane) for every set lane of `w`, lowest first.
template <typename Word, typename F>
void for_each_lane(const Word& w, F&& f) {
  if constexpr (std::is_same_v<Word, std::uint64_t>) {
    for (std::uint64_t bits = w; bits != 0; bits &= bits - 1) {
      f(static_cast<unsigned>(std::countr_zero(bits)));
    }
  } else {
    for (std::size_t limb = 0; limb < w.w.size(); ++limb) {
      for (std::uint64_t bits = w.w[limb]; bits != 0; bits &= bits - 1) {
        f(static_cast<unsigned>(limb * 64 + std::countr_zero(bits)));
      }
    }
  }
}

/// One lane word's worth of faulty machines inside a pool: a DFF-state
/// vector (swapped into the worker's engine for its evals) and the fault
/// each lane carries.
template <typename Word>
struct LaneBank {
  std::vector<Word> state;                ///< one lane word per DFF
  std::vector<std::uint32_t> lane_fault;  ///< lane -> scheduled fault index
  Word live = LaneTraits<Word>::zero();   ///< lanes carrying an ungraded fault
  /// Free lanes retired as failures: their state still diverges from
  /// golden. Silent lanes converged, so they track golden already.
  Word dirty = LaneTraits<Word>::zero();
  /// Lanes to re-broadcast from golden state(t) when the bank is next
  /// swapped in, before this cycle's injections.
  Word reset = LaneTraits<Word>::zero();
  /// The cycle `state` belongs to (none for a new bank); a bank skipped for
  /// having no live lanes falls behind and is reset whole when it takes a
  /// fault.
  std::size_t cycle = ~std::size_t{0};
  std::vector<unsigned> arrivals;  ///< lanes injected this cycle
  /// Every-cycle models' persistent overlay, built when the bank fills.
  std::vector<CompiledKernel::OverlayEntry<Word>> overlay;
};

}  // namespace

ParallelFaultSimulator::ParallelFaultSimulator(const Circuit& circuit,
                                               const Testbench& testbench,
                                               CampaignConfig config)
    : circuit_(circuit), testbench_(testbench), config_(config) {
  FEMU_CHECK(testbench.input_width() == circuit.num_inputs(),
             "testbench width ", testbench.input_width(), " != circuit PI ",
             circuit.num_inputs());
  // The interpreted oracle has one width; `lanes` configures the compiled
  // engine only.
  lanes_ = config_.backend == SimBackend::kCompiled ? config_.lanes
                                                    : LaneWidth::k64;

  // ---- artifact cache probe ----
  // One lookup per construction: a hit supplies every artifact the shape
  // needs; any miss flavor (absent, corrupt, version skew, foreign
  // fingerprint) degrades to a full rebuild + store. Interpreted backends
  // have no cacheable artifacts worth the key, so the cache is
  // compiled-backend only.
  const bool cache_on =
      !config_.cache_dir.empty() && config_.backend == SimBackend::kCompiled;
  ArtifactCacheKey cache_key;
  ArtifactBundle cached;
  bool cache_hit = false;
  if (cache_on) {
    obs::PhaseSpan span(config_.telemetry, "cache_load");
    WallTimer timer;
    cache_key.circuit = circuit_structure_hash(circuit);
    cache_key.testbench = testbench_content_hash(testbench);
    cache_key.config_rule = campaign_config_rule_hash();
    cache_key.optimizer = optimizer_pipeline_hash();
    ArtifactLoadResult loaded =
        load_artifacts(config_.cache_dir, cache_key, circuit);
    telem_.cache_bytes_read = loaded.bytes;
    if (loaded.status == ArtifactCacheStatus::kHit) {
      cache_hit = true;
      telem_.cache_hits = 1;
      cached = std::move(loaded.bundle);
    } else {
      telem_.cache_misses = 1;
      if (loaded.status != ArtifactCacheStatus::kMiss) {
        std::fprintf(stderr, "femu: artifact cache %s: %s -- rebuilding\n",
                     artifact_cache_status_name(loaded.status),
                     loaded.detail.c_str());
      }
    }
    telem_.cache_load_seconds = timer.elapsed_seconds();
  }

  // The raw kernel is always compiled fresh: it binds the live circuit,
  // overlay models run it directly, and compiling is orders of magnitude
  // cheaper than the phases the cache skips.
  if (config_.backend == SimBackend::kCompiled) {
    obs::PhaseSpan span(config_.telemetry, "compile");
    WallTimer timer;
    kernel_ = compile_kernel(circuit);
    telem_.compile_seconds = timer.elapsed_seconds();
  }

  // Construction phases are timed unconditionally into the scalar snapshot
  // (a handful of timer reads on a one-time path); the trace spans are
  // emitted only when a collector is attached.
  if (cache_hit) {
    golden_ = std::move(cached.golden);
  } else {
    obs::PhaseSpan span(config_.telemetry, "golden_trace");
    WallTimer timer;
    golden_ = kernel_ != nullptr
                  ? capture_golden_unified(*kernel_, testbench.vectors(),
                                           config_.num_threads,
                                           /*want_slots=*/false)
                        .trace
                  : capture_golden(circuit, testbench.vectors());
    telem_.golden_seconds = timer.elapsed_seconds();
  }

  // FF-model optimized kernel: adopt the cached one, or — when caching — build
  // it eagerly so the stored entry is complete and the first select_run_kernel
  // gets it for free. Its build time lands in compile_seconds (kernel
  // preparation); select_run_kernel's opt_seconds stays a cache-miss meter.
  if (cache_hit) {
    opt_kernel_ff_ = std::move(cached.opt_kernel);
  } else if (cache_on) {
    obs::PhaseSpan span(config_.telemetry, "optimize");
    WallTimer timer;
    opt_kernel_ff_ = optimize_kernel(kernel_, {});
    telem_.compile_seconds += timer.elapsed_seconds();
  }

  if (cache_on && !cache_hit) {
    obs::PhaseSpan span(config_.telemetry, "cache_store");
    WallTimer timer;
    const ArtifactStoreResult stored = store_artifacts(
        config_.cache_dir, cache_key, {&golden_, opt_kernel_ff_.get()});
    telem_.cache_bytes_written = stored.bytes;
    if (!stored.stored) {
      std::fprintf(stderr, "femu: artifact cache store failed: %s\n",
                   stored.detail.c_str());
    }
    telem_.cache_store_seconds = timer.elapsed_seconds();
  }
  if (cache_on && config_.telemetry != nullptr) {
    config_.telemetry->record_cache(telem_.cache_hits, telem_.cache_misses,
                                    telem_.cache_bytes_read,
                                    telem_.cache_bytes_written);
  }
}

void ParallelFaultSimulator::select_run_kernel(bool overlay_model) {
  if (kernel_ == nullptr || overlay_model) {
    // Interpreted (no kernel at all), or an overlay model whose injection
    // sites must stay materialized: the raw stream runs.
    run_kernel_ = kernel_;
    telem_.opt_seconds = 0.0;
    telem_.opt_raw_instrs = telem_.opt_instrs = 0;
    telem_.opt_absorbed = telem_.opt_folded = telem_.opt_dead = 0;
    if (config_.telemetry != nullptr) {
      config_.telemetry->record_optimizer(0, 0, 0, 0, 0);
    }
    return;
  }
  // State-bit models inject into state words, never gate slots: one
  // maximally-optimized kernel serves every such run.
  double build_seconds = 0.0;
  if (opt_kernel_ff_ == nullptr) {
    obs::PhaseSpan span(config_.telemetry, "optimize");
    WallTimer timer;
    opt_kernel_ff_ = optimize_kernel(kernel_, {});
    build_seconds = timer.elapsed_seconds();
  }
  run_kernel_ = opt_kernel_ff_;
  const CompiledKernel::OptStats& stats = run_kernel_->opt_stats();
  telem_.opt_seconds = build_seconds;
  telem_.opt_raw_instrs = stats.raw_instrs;
  telem_.opt_instrs = stats.opt_instrs;
  telem_.opt_absorbed = stats.absorbed;
  telem_.opt_folded = stats.folded;
  telem_.opt_dead = stats.dead;
  if (config_.telemetry != nullptr) {
    config_.telemetry->record_optimizer(stats.raw_instrs, stats.opt_instrs,
                                        stats.absorbed, stats.folded,
                                        stats.dead);
  }
}

// ---- campaign entry points -------------------------------------------------
//
// One thin wrapper per model: run the generic driver, shape the result.

CampaignResult ParallelFaultSimulator::run(std::span<const Fault> faults) {
  WallTimer timer;
  std::vector<FaultOutcome> outcomes(faults.size());
  run_model<FaultModelTraits<FaultModel::kSeu>>(faults, outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return CampaignResult(std::vector<Fault>(faults.begin(), faults.end()),
                        std::move(outcomes));
}

MbuCampaignResult ParallelFaultSimulator::run_mbu(
    std::span<const MbuFault> faults) {
  WallTimer timer;
  MbuCampaignResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.outcomes.resize(faults.size());
  run_model<FaultModelTraits<FaultModel::kMbu>>(faults, result.outcomes);
  result.counts.add(result.outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return result;
}

SetCampaignResult ParallelFaultSimulator::run_set(
    std::span<const SetFault> faults) {
  WallTimer timer;
  SetCampaignResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.outcomes.resize(faults.size());
  run_model<FaultModelTraits<FaultModel::kSet>>(faults, result.outcomes);
  result.counts.add(result.outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return result;
}

StuckAtCampaignResult ParallelFaultSimulator::run_stuckat(
    std::span<const StuckAtFault> faults) {
  WallTimer timer;
  StuckAtCampaignResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.outcomes.resize(faults.size());
  run_model<FaultModelTraits<FaultModel::kStuckAt>>(faults, result.outcomes);
  result.counts.add(result.outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return result;
}

// ---- generic campaign driver -----------------------------------------------

template <typename Traits>
void ParallelFaultSimulator::run_model(
    std::span<const typename Traits::FaultT> faults,
    std::span<FaultOutcome> outcomes) {
  using FaultT = typename Traits::FaultT;
  using View = ModelView<Traits>;

  if constexpr (Traits::kUsesOverlay) {
    FEMU_CHECK(kernel_ != nullptr, fault_model_name(Traits::kModel),
               " campaigns require the compiled backend "
               "(the injection overlay is an instruction-stream mechanism)");
  }
  const std::size_t num_cycles = testbench_.num_cycles();
  for (const FaultT& fault : faults) {
    Traits::validate(circuit_, num_cycles, fault);
  }

  select_run_kernel(Traits::kUsesOverlay);

  // Planning span covers the schedule sort and the permuted copy. Taken
  // manually (not PhaseSpan) because the planned vectors must outlive the
  // span scope.
  const std::uint64_t plan_begin_ns = config_.telemetry ? now_ns() : 0;

  const std::size_t stride =
      Traits::kSiteKeyed ? circuit_.node_count() : circuit_.num_dffs();
  const std::vector<std::uint32_t> perm =
      cycle_major_perm(faults.size(), [&](std::size_t i) {
        return std::uint64_t{Traits::cycle(faults[i])} * stride +
               Traits::schedule_site(faults[i]);
      });

  // Run over a permuted view, scatter outcomes back through the inverse
  // permutation so results align with caller order.
  std::vector<FaultT> scheduled;
  scheduled.reserve(faults.size());
  for (const std::uint32_t idx : perm) scheduled.push_back(faults[idx]);
  std::vector<FaultOutcome> scheduled_outcomes(faults.size());

  // Consecutive full-width groups of the scheduled list (only the last one
  // may be partial), dealt round-robin to the lane-refilling pools.
  const std::size_t n = faults.size();
  const std::size_t width = lane_count(lanes_);
  const std::size_t num_groups = (n + width - 1) / width;
  const std::size_t num_pools = pool_count(num_groups);
  telem_.group_widths = {};
  switch (lanes_) {
    case LaneWidth::k64: telem_.group_widths.g64 = num_groups; break;
    case LaneWidth::k512: telem_.group_widths.g512 = num_groups; break;
  }
  telem_.lane_occupancy =
      num_groups != 0
          ? static_cast<double>(n) / static_cast<double>(num_groups * width)
          : 1.0;
  if (config_.telemetry != nullptr) {
    config_.telemetry->record_campaign_span("plan", plan_begin_ns, now_ns());
  }

  // Failure-signature buffer in scheduled order (scattered back through the
  // permutation at the end, like the outcomes). Empty span = capture off —
  // the pool runner skips the syndrome work entirely.
  std::vector<std::uint64_t> scheduled_sigs;
  if (capture_signatures_) {
    scheduled_sigs.assign(n, 0);
  }

  unsigned workers = config_.num_threads != 0
                         ? config_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(num_pools, 1)));
  telem_.threads = workers;
  telem_.faults = n;

  // Arm the collector before any worker thread exists (per-worker shards
  // and trace tracks are pre-registered; workers then record lock-free).
  obs::TelemetryCollector* const collector = config_.telemetry;
  if (collector != nullptr) {
    collector->begin_run(workers, n);
  }
  const std::uint64_t grade_begin_ns = collector != nullptr ? now_ns() : 0;

  // Streams one retire batch (scheduled positions) to the telemetry slice
  // and the retire callback, with caller-order indices (perm maps scheduled
  // position -> caller position). The callback runs on the worker thread
  // and is responsible for its own synchronization.
  const auto retire_batch = [&](std::span<const std::uint32_t> batch,
                                WorkerScratch& scratch) {
    // Null telemetry is the fast path: no timestamps, no recording.
    if (obs::WorkerTelemetry* const wt = scratch.telemetry) {
      const std::uint64_t end_ns = now_ns();
      wt->group_slice(scratch.batch_begin_ns, end_ns,
                      static_cast<std::uint32_t>(width),
                      static_cast<std::uint32_t>(batch.size()), 0,
                      scratch.eval_instrs - scratch.batch_instrs0);
      scratch.batch_begin_ns = end_ns;
      scratch.batch_instrs0 = scratch.eval_instrs;
    }
    if (!retire_cb_) return;
    scratch.cb_indices.clear();
    scratch.cb_outcomes.clear();
    scratch.cb_sigs.clear();
    for (const std::uint32_t i : batch) {
      scratch.cb_indices.push_back(perm[i]);
      scratch.cb_outcomes.push_back(scheduled_outcomes[i]);
      if (!scheduled_sigs.empty()) {
        scratch.cb_sigs.push_back(scheduled_sigs[i]);
      }
    }
    retire_cb_(scratch.cb_indices, scratch.cb_outcomes, scratch.cb_sigs);
  };

  // Grades pool p — groups p, p + P, p + 2P, ... of the scheduled list —
  // on one worker's engine.
  const View view{scheduled};
  const auto run_one = [&](auto& engine, std::size_t p,
                           WorkerScratch& scratch) {
    scratch.pool.clear();
    for (std::size_t g = p; g < num_groups; g += num_pools) {
      for (std::size_t i = g * width; i < std::min(n, (g + 1) * width); ++i) {
        scratch.pool.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (scratch.telemetry != nullptr) {
      scratch.batch_begin_ns = now_ns();
      scratch.batch_instrs0 = scratch.eval_instrs;
    }
    // Permanent faults all enter at cycle 0, so no later arrival ever takes
    // a freed lane: a pool's groups run one after another, at the same eval
    // cycles, on one bank instead of one per group.
    const std::span<const std::uint32_t> pool(scratch.pool);
    const std::size_t pass = View::kOverlayEveryCycle ? width : pool.size();
    for (std::size_t b = 0; b < pool.size(); b += pass) {
      run_pool(engine, view, pool.subspan(b, std::min(pass, pool.size() - b)),
               scheduled_outcomes, scheduled_sigs,
               [&](std::span<const std::uint32_t> batch) {
                 retire_batch(batch, scratch);
               },
               scratch);
    }
  };

  if (kernel_ != nullptr) {
    const auto shard = [&]<typename Word>() {
      run_sharded([this] { return LaneEngine<Word>(run_kernel_); }, run_one,
                  num_pools, workers);
    };
    switch (lanes_) {
      case LaneWidth::k64: shard.template operator()<std::uint64_t>(); break;
      case LaneWidth::k512: shard.template operator()<Word512>(); break;
    }
  } else if constexpr (!View::kHasOverlay) {
    // Interpreted backend: 64 lanes and no instruction stream to overlay —
    // the overlay-model check above rejects that configuration up front.
    run_sharded(
        [this] { return ParallelSimulator(circuit_, SimBackend::kInterpreted); },
        run_one, num_pools, workers);
  }
  const std::uint64_t lane_cycles = telem_.eval_cycles * width;
  telem_.lane_cycle_occupancy =
      lane_cycles != 0 ? static_cast<double>(telem_.live_lane_cycles) /
                             static_cast<double>(lane_cycles)
                       : 1.0;

  if (collector != nullptr) {
    collector->record_campaign_span("grade", grade_begin_ns, now_ns());
    collector->record_lane_cycles(telem_.live_lane_cycles, lane_cycles);
    collector->end_run();
  }

  for (std::size_t i = 0; i < n; ++i) {
    outcomes[perm[i]] = scheduled_outcomes[i];
  }
  last_run_signatures_.clear();
  if (capture_signatures_) {
    last_run_signatures_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      last_run_signatures_[perm[i]] = scheduled_sigs[i];
    }
  }
}

template <typename MakeEngine, typename RunOne>
void ParallelFaultSimulator::run_sharded(const MakeEngine& make_engine,
                                         const RunOne& run_one,
                                         std::size_t num_pools,
                                         unsigned num_workers) {
  // Work-stealing: each worker owns one engine and one scratch (sharing the
  // read-only kernel and golden trace) and pulls pool indices from an
  // atomic counter. Each pool writes a disjoint set of outcome slots, so the
  // result is identical for any worker count or scheduling order. The
  // calling thread is worker 0; one worker runs inline without spawning.
  std::atomic<std::size_t> next_pool{0};
  std::atomic<std::uint64_t> total_eval_cycles{0};
  std::atomic<std::uint64_t> total_eval_instrs{0};
  std::atomic<std::uint64_t> total_eval_slot_bytes{0};
  std::atomic<std::uint64_t> total_live_lane_cycles{0};
  const auto worker = [&](unsigned worker_id) {
    auto engine = make_engine();
    WorkerScratch scratch;
    if (config_.telemetry != nullptr) {
      scratch.telemetry = &config_.telemetry->worker(worker_id);
    }
    for (std::size_t p = next_pool.fetch_add(1, std::memory_order_relaxed);
         p < num_pools;
         p = next_pool.fetch_add(1, std::memory_order_relaxed)) {
      run_one(engine, p, scratch);
    }
    total_eval_cycles.fetch_add(scratch.eval_cycles,
                                std::memory_order_relaxed);
    total_eval_instrs.fetch_add(scratch.eval_instrs,
                                std::memory_order_relaxed);
    total_eval_slot_bytes.fetch_add(scratch.eval_slot_bytes,
                                    std::memory_order_relaxed);
    total_live_lane_cycles.fetch_add(scratch.live_lane_cycles,
                                     std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  for (unsigned i = 1; i < num_workers; ++i) {
    threads.emplace_back(worker, i);
  }
  worker(0);
  for (auto& t : threads) {
    t.join();
  }
  telem_.eval_cycles = total_eval_cycles.load();
  telem_.eval_instrs = total_eval_instrs.load();
  telem_.eval_slot_bytes = total_eval_slot_bytes.load();
  telem_.live_lane_cycles = total_live_lane_cycles.load();
}

template <typename Engine, typename View, typename OnRetire>
void ParallelFaultSimulator::run_pool(Engine& engine, const View& view,
                                      std::span<const std::uint32_t> pool,
                                      std::span<FaultOutcome> outcomes,
                                      std::span<std::uint64_t> sigs,
                                      const OnRetire& on_retire,
                                      WorkerScratch& scratch) const {
  using Word = std::remove_cvref_t<decltype(engine.node_word(0))>;
  using T = LaneTraits<Word>;
  const std::size_t num_cycles = testbench_.num_cycles();
  const std::size_t program_size =
      run_kernel_ ? run_kernel_->program().size() : circuit_.num_gates();
  const std::size_t slot_bytes = circuit_.node_count() * sizeof(Word);
  const std::size_t width = T::kLanes;
  if (pool.empty()) return;

  std::vector<LaneBank<Word>> banks;
  [[maybe_unused]] std::vector<CompiledKernel::OverlayEntry<Word>> overlay;
  std::vector<std::uint32_t> batch;
  batch.reserve(width);
  const auto retire = [&](std::uint32_t i, FaultOutcome outcome) {
    outcomes[i] = outcome;
    batch.push_back(i);
    if (batch.size() == width) {
      on_retire(std::span<const std::uint32_t>(batch));
      batch.clear();
    }
  };

  if (num_cycles == 0) {
    // Empty testbench (only stuck-at lists skip the cycle check): nothing
    // evaluates, so every fault grades silent, as in the serial reference.
    for (const std::uint32_t i : pool) {
      retire(i, {FaultClass::kSilent, kNoCycle, kNoCycle});
    }
    if (!batch.empty()) on_retire(std::span<const std::uint32_t>(batch));
    return;
  }

  std::size_t cursor = 0;  // next pool fault to inject
  std::size_t arrivals_end = 0;
  std::size_t t = view.cycle(pool.front());
  // Assigns this cycle's pending arrivals to the free lanes of `bank`,
  // silent (already golden) lanes before failure-retired ones. The lanes
  // that must return to golden are reset when the bank is swapped in.
  const auto fill = [&](LaneBank<Word>& bank) {
    const Word free = ~bank.live;
    if (cursor == arrivals_end || !T::any(free)) return;
    if (bank.cycle != t) {
      bank.reset = T::ones();
      bank.dirty = T::zero();
      bank.cycle = t;
    }
    if (T::count(free & ~bank.dirty) < arrivals_end - cursor &&
        T::any(bank.dirty)) {
      bank.reset |= bank.dirty;
      bank.dirty = T::zero();
    }
    for_each_lane(free & ~bank.dirty, [&](unsigned lane) {
      if (cursor == arrivals_end) return;
      const std::uint32_t i = pool[cursor++];
      bank.lane_fault[lane] = i;
      bank.live |= T::lane_bit(lane);
      bank.arrivals.push_back(lane);
      if constexpr (View::kOverlayEveryCycle) {
        bank.overlay.push_back(view.template overlay_entry<Word>(i, lane));
      }
    });
    if constexpr (View::kOverlayEveryCycle) {
      finalize_overlay(bank.overlay);
    }
  };

  for (;;) {
    // Place the faults injected at t: free lanes of live banks first, then
    // idle banks; a new bank opens only when every lane is busy.
    while (arrivals_end < pool.size() && view.cycle(pool[arrivals_end]) == t) {
      ++arrivals_end;
    }
    for (auto& bank : banks) {
      if (T::any(bank.live)) fill(bank);
    }
    for (auto& bank : banks) {
      if (!T::any(bank.live)) fill(bank);
    }
    while (cursor < arrivals_end) {
      auto& bank = banks.emplace_back();
      if (banks.size() == 1) {
        // The first bank borrows the engine's own state buffer (returned
        // when the pool ends), so a pool costs no memory beyond its banks.
        engine.swap_state(bank.state);
      } else {
        bank.state.resize(circuit_.num_dffs());
      }
      bank.lane_fault.resize(width);
      fill(bank);
    }

    const bool last_cycle = t + 1 == num_cycles;
    bool any_live = false;
    for (auto& bank : banks) {
      if (!T::any(bank.live)) continue;  // idle banks are skipped
      engine.swap_state(bank.state);
      if (T::any(bank.reset)) {
        engine.blend_state(golden_.states[t], bank.reset);
        bank.reset = T::zero();
      }

      // SEU/MBU flips happen in state(t), before cycle t evaluates — the
      // upset hits the new state; an overlay model's lane instead
      // contributes an overlay entry so the fault lands inline during this
      // cycle's evaluation.
      if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
        overlay.clear();
      }
      [[maybe_unused]] bool thin_now = false;
      for (const unsigned lane : bank.arrivals) {
        const std::uint32_t i = bank.lane_fault[lane];
        view.inject(engine, i, lane);
        if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
          overlay.push_back(view.template overlay_entry<Word>(i, lane));
        }
        if constexpr (View::kLatchThinning) {
          thin_now = thin_now || view.lane_thins(i);
        }
      }

      const BitVec& inputs = testbench_.vectors()[t];
      if constexpr (View::kOverlayEveryCycle) {
        engine.eval_overlay(inputs, bank.overlay);
      } else if constexpr (View::kHasOverlay) {
        finalize_overlay(overlay);
        engine.eval_overlay(inputs, overlay);
      } else {
        engine.eval(inputs);
      }
      ++scratch.eval_cycles;
      scratch.eval_instrs += program_size;
      scratch.eval_slot_bytes += slot_bytes;
      scratch.live_lane_cycles += T::count(bank.live);

      const Word failed =
          engine.output_mismatch_lanes(golden_.outputs[t]) & bank.live;
      for_each_lane(failed, [&](unsigned lane) {
        const std::uint32_t i = bank.lane_fault[lane];
        if (!sigs.empty()) {
          // Failure signature: faulty XOR golden outputs at the detect
          // cycle (the serial dictionary's syndrome, same hash).
          BitVec syndrome = engine.lane_outputs(lane);
          syndrome ^= golden_.outputs[t];
          sigs[i] = syndrome.hash();
        }
        retire(i, {FaultClass::kFailure, static_cast<std::uint32_t>(t),
                   kNoCycle});
      });
      bank.live &= ~failed;
      bank.dirty |= failed;

      engine.step();

      const BitVec& next_state = golden_.states[t + 1];
      if constexpr (View::kLatchThinning) {
        // Latching-window thinning: a sub-full-width pulse misses some
        // destination FFs' setup windows; those latch the golden next-state
        // bit instead of the transient-disturbed D.
        if (thin_now) {
          for (const unsigned lane : bank.arrivals) {
            const std::uint32_t i = bank.lane_fault[lane];
            if (!view.lane_thins(i)) continue;
            for (std::uint32_t ff = 0; ff < next_state.size(); ++ff) {
              if (!view.latches(i, ff)) {
                engine.force_state_lanes(ff, T::lane_bit(lane),
                                         next_state.get(ff));
              }
            }
          }
        }
      }

      if (View::kRetireOnConvergence || last_cycle) {
        const Word differs = engine.state_mismatch_lanes(next_state);
        if constexpr (View::kRetireOnConvergence) {
          const Word converged = bank.live & ~differs;
          for_each_lane(converged, [&](unsigned lane) {
            retire(bank.lane_fault[lane],
                   {FaultClass::kSilent, kNoCycle,
                    static_cast<std::uint32_t>(t + 1)});
          });
          bank.live &= ~converged;
        }
        if (last_cycle) {
          // Lanes still live never showed an output deviation: latent when
          // the final state differs from golden, silent when it does not
          // (only a permanent fault, never convergence-retired, can be
          // live and equal to golden here).
          for_each_lane(bank.live, [&](unsigned lane) {
            retire(bank.lane_fault[lane],
                   {T::test(differs, lane) ? FaultClass::kLatent
                                           : FaultClass::kSilent,
                    kNoCycle, kNoCycle});
          });
          bank.live = T::zero();
        }
      }

      engine.swap_state(bank.state);
      bank.cycle = t + 1;
      bank.arrivals.clear();
      any_live = any_live || T::any(bank.live);
    }

    if (last_cycle) break;
    if (any_live) {
      ++t;
    } else if (cursor < pool.size()) {
      // Fast-forward: nothing is live, so jump straight to the next
      // injection cycle; idle banks re-broadcast golden when they refill.
      t = view.cycle(pool[cursor]);
    } else {
      break;
    }
  }
  engine.swap_state(banks.front().state);
  if (!batch.empty()) on_retire(std::span<const std::uint32_t>(batch));
}

}  // namespace femu
