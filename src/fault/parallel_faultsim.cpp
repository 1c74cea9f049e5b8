#include "fault/parallel_faultsim.h"

#include <algorithm>
#include <atomic>
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
// (fault/model_traits.h). The group runner specializes per model purely via
// `if constexpr` on the view's flags, so SEU/MBU instantiations carry no
// overlay, thinning or every-cycle code at all.

/// Selects the lane-width-matching overlay vector out of the per-worker
/// scratch (Scratch is deduced — WorkerScratch is private).
template <typename Word, typename Scratch>
[[nodiscard]] auto& overlay_in(Scratch& scratch) {
  if constexpr (std::is_same_v<Word, Word512>) {
    return scratch.overlay512;
  } else if constexpr (std::is_same_v<Word, Word256>) {
    return scratch.overlay256;
  } else {
    return scratch.overlay64;
  }
}

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
/// key. Groups then span minimal injection-cycle ranges, start late and
/// fast-forward far. Counting-sorted when the key space is dense (the
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

/// Sorts a group's lane indices by injection cycle into `order`: injections
/// then advance a cursor instead of rescanning all lanes per cycle, and the
/// cursor's head is the next injection cycle the fast-forward path jumps to.
template <typename View>
void sort_group_order(const View& view, std::vector<std::uint32_t>& order) {
  order.resize(view.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return view.cycle(x) < view.cycle(y);
  });
}

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
  const bool cache_opt_kernel = cache_on && config_.optimize;
  ArtifactCacheKey cache_key;
  ArtifactBundle cached;
  bool cache_hit = false;
  if (cache_on) {
    obs::PhaseSpan span(config_.telemetry, "cache_load");
    WallTimer timer;
    cache_key.circuit = circuit_structure_hash(circuit);
    cache_key.testbench = testbench_content_hash(testbench);
    cache_key.config_rule = campaign_config_rule_hash();
    cache_key.optimizer = optimizer_pipeline_hash(config_.optimize);
    cache_key.shape = artifact_shape_hash(cache_opt_kernel);
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
  // site-keyed optimizations re-run from it per preserve set, and compiling
  // is orders of magnitude cheaper than the phases the cache skips.
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
  if (cached.opt_kernel != nullptr) {
    opt_kernel_ff_ = std::move(cached.opt_kernel);
  } else if (cache_opt_kernel) {
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

void ParallelFaultSimulator::select_run_kernel(std::vector<NodeId> preserve) {
  if (kernel_ == nullptr || !config_.optimize) {
    run_kernel_ = kernel_;  // raw stream (or interpreted: no kernel at all)
    telem_.opt_seconds = 0.0;
    telem_.opt_raw_instrs = telem_.opt_instrs = 0;
    telem_.opt_absorbed = telem_.opt_folded = telem_.opt_dead = 0;
    telem_.opt_preserved = 0;
    if (config_.telemetry != nullptr) {
      config_.telemetry->record_optimizer(0, 0, 0, 0, 0, 0);
    }
    return;
  }
  std::sort(preserve.begin(), preserve.end());
  preserve.erase(std::unique(preserve.begin(), preserve.end()),
                 preserve.end());
  double build_seconds = 0.0;
  if (preserve.empty()) {
    // FF-keyed models (SEU/MBU) inject into state words, never gate slots:
    // one maximally-optimized kernel serves every such run.
    if (opt_kernel_ff_ == nullptr) {
      obs::PhaseSpan span(config_.telemetry, "optimize");
      WallTimer timer;
      opt_kernel_ff_ = optimize_kernel(kernel_, preserve);
      build_seconds = timer.elapsed_seconds();
    }
    run_kernel_ = opt_kernel_ff_;
  } else {
    // Site-keyed models: a kernel optimized under a superset preserve set is
    // sound (just less optimized), so reuse the cached one while this run's
    // sites are a subset of what it keeps materialized.
    const bool subset =
        opt_kernel_site_ != nullptr &&
        std::includes(site_preserve_.begin(), site_preserve_.end(),
                      preserve.begin(), preserve.end());
    if (!subset) {
      obs::PhaseSpan span(config_.telemetry, "optimize");
      WallTimer timer;
      opt_kernel_site_ = optimize_kernel(kernel_, preserve);
      build_seconds = timer.elapsed_seconds();
      site_preserve_ = std::move(preserve);
    }
    run_kernel_ = opt_kernel_site_;
  }
  const CompiledKernel::OptStats& stats = run_kernel_->opt_stats();
  telem_.opt_seconds = build_seconds;
  telem_.opt_raw_instrs = stats.raw_instrs;
  telem_.opt_instrs = stats.opt_instrs;
  telem_.opt_absorbed = stats.absorbed;
  telem_.opt_folded = stats.folded;
  telem_.opt_dead = stats.dead;
  telem_.opt_preserved = stats.preserved;
  if (config_.telemetry != nullptr) {
    config_.telemetry->record_optimizer(stats.raw_instrs, stats.opt_instrs,
                                        stats.absorbed, stats.folded,
                                        stats.dead, stats.preserved);
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

  // Resolve the instruction stream this run executes: the raw kernel, or an
  // optimized clone whose preserve set covers every injection site in this
  // fault list (cached — see select_run_kernel).
  {
    std::vector<NodeId> preserve;
    Traits::collect_preserve(faults, preserve);
    select_run_kernel(std::move(preserve));
  }

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

  // Consecutive full-width groups of the scheduled list; only the last one
  // may be partial.
  const std::size_t n = faults.size();
  const std::size_t width = lane_count(lanes_);
  const std::size_t num_groups = (n + width - 1) / width;
  telem_.group_widths = {};
  switch (lanes_) {
    case LaneWidth::k64: telem_.group_widths.g64 = num_groups; break;
    case LaneWidth::k256: telem_.group_widths.g256 = num_groups; break;
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
  // the group runner skips the syndrome work entirely.
  std::vector<std::uint64_t> scheduled_sigs;
  if (capture_signatures_) {
    scheduled_sigs.assign(n, 0);
  }

  unsigned workers = config_.num_threads != 0
                         ? config_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(num_groups, 1)));
  telem_.threads = workers;
  telem_.faults = n;

  // Arm the collector before any worker thread exists (per-worker shards
  // and trace tracks are pre-registered; workers then record lock-free).
  obs::TelemetryCollector* const collector = config_.telemetry;
  if (collector != nullptr) {
    collector->begin_run(workers, n);
  }
  const std::uint64_t grade_begin_ns = collector != nullptr ? now_ns() : 0;

  // Grades group g on one worker's engine, then streams its outcomes to the
  // retire callback with caller-order indices (perm maps scheduled position
  // -> caller position). The callback runs on the worker thread and is
  // responsible for its own synchronization.
  const auto run_one = [&](auto& engine, std::size_t g,
                           WorkerScratch& scratch) {
    const std::size_t begin = g * width;
    const std::size_t count = std::min(width, n - begin);
    const std::span<FaultOutcome> group_outcomes =
        std::span<FaultOutcome>(scheduled_outcomes).subspan(begin, count);
    const std::span<std::uint64_t> group_sigs =
        scheduled_sigs.empty()
            ? std::span<std::uint64_t>{}
            : std::span<std::uint64_t>(scheduled_sigs).subspan(begin, count);
    // Null telemetry is the fast path: no timestamps, no recording — the
    // only per-group cost is this pointer test.
    obs::WorkerTelemetry* const wt = scratch.telemetry;
    std::uint64_t begin_ns = 0, instrs0 = 0;
    if (wt != nullptr) {
      begin_ns = now_ns();
      instrs0 = scratch.eval_instrs;
    }
    run_group(engine,
              View{std::span<const FaultT>(scheduled).subspan(begin, count)},
              group_outcomes, group_sigs, scratch);
    if (wt != nullptr) {
      wt->group_slice(begin_ns, now_ns(), static_cast<std::uint32_t>(width),
                      static_cast<std::uint32_t>(count), 0,
                      scratch.eval_instrs - instrs0);
    }
    if (retire_cb_) {
      std::vector<std::uint32_t> indices(perm.begin() + begin,
                                         perm.begin() + begin + count);
      retire_cb_(indices, group_outcomes, group_sigs);
    }
  };

  if (kernel_ != nullptr) {
    const auto shard = [&]<typename Word>() {
      run_sharded([this] { return LaneEngine<Word>(run_kernel_); }, run_one,
                  num_groups, workers);
    };
    switch (lanes_) {
      case LaneWidth::k64: shard.template operator()<std::uint64_t>(); break;
      case LaneWidth::k256: shard.template operator()<Word256>(); break;
      case LaneWidth::k512: shard.template operator()<Word512>(); break;
    }
  } else if constexpr (!View::kHasOverlay) {
    // Interpreted backend: 64 lanes and no instruction stream to overlay —
    // the overlay-model check above rejects that configuration up front.
    run_sharded(
        [this] { return ParallelSimulator(circuit_, SimBackend::kInterpreted); },
        run_one, num_groups, workers);
  }

  if (collector != nullptr) {
    collector->record_campaign_span("grade", grade_begin_ns, now_ns());
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
                                         std::size_t num_groups,
                                         unsigned num_workers) {
  // Work-stealing pool: each worker owns one engine and one scratch (sharing
  // the read-only kernel and golden trace) and pulls group indices from an
  // atomic counter. Each group writes a disjoint outcome slice, so the
  // result is identical for any worker count or scheduling order. The
  // calling thread is worker 0; one worker runs inline without spawning.
  std::atomic<std::size_t> next_group{0};
  std::atomic<std::uint64_t> total_eval_cycles{0};
  std::atomic<std::uint64_t> total_eval_instrs{0};
  std::atomic<std::uint64_t> total_eval_slot_bytes{0};
  const auto worker = [&](unsigned worker_id) {
    auto engine = make_engine();
    WorkerScratch scratch;
    if (config_.telemetry != nullptr) {
      scratch.telemetry = &config_.telemetry->worker(worker_id);
    }
    for (std::size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
         g < num_groups;
         g = next_group.fetch_add(1, std::memory_order_relaxed)) {
      run_one(engine, g, scratch);
    }
    total_eval_cycles.fetch_add(scratch.eval_cycles,
                                std::memory_order_relaxed);
    total_eval_instrs.fetch_add(scratch.eval_instrs,
                                std::memory_order_relaxed);
    total_eval_slot_bytes.fetch_add(scratch.eval_slot_bytes,
                                    std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(num_workers - 1);
  for (unsigned i = 1; i < num_workers; ++i) {
    pool.emplace_back(worker, i);
  }
  worker(0);
  for (auto& t : pool) {
    t.join();
  }
  telem_.eval_cycles = total_eval_cycles.load();
  telem_.eval_instrs = total_eval_instrs.load();
  telem_.eval_slot_bytes = total_eval_slot_bytes.load();
}

template <typename Engine, typename View>
void ParallelFaultSimulator::run_group(Engine& engine, const View& view,
                                       std::span<FaultOutcome> outcomes,
                                       std::span<std::uint64_t> sigs,
                                       WorkerScratch& scratch) const {
  using Word = std::remove_cvref_t<decltype(engine.node_word(0))>;
  using T = LaneTraits<Word>;
  const std::size_t num_cycles = testbench_.num_cycles();
  const std::size_t program_size =
      run_kernel_ ? run_kernel_->program().size() : circuit_.num_gates();
  const std::size_t slot_bytes = circuit_.node_count() * sizeof(Word);
  const std::size_t group_size = view.size();
  const Word group_mask = T::first_n(group_size);

  sort_group_order(view, scratch.order);
  const std::vector<std::uint32_t>& order = scratch.order;
  std::size_t cursor = 0;

  // Default: latent (overwritten on detection/convergence below).
  for (auto& outcome : outcomes) {
    outcome = FaultOutcome{FaultClass::kLatent, kNoCycle, kNoCycle};
  }

  const std::uint32_t first_cycle = view.cycle(order.front());
  engine.broadcast_state(golden_.states[first_cycle]);
  Word injected = T::zero();
  Word classified = T::zero();
  [[maybe_unused]] auto& overlay = overlay_in<Word>(scratch);
  if constexpr (View::kHasOverlay && View::kOverlayEveryCycle) {
    // Permanent faults: one persistent overlay entry per lane, applied on
    // every cycle's evaluation — built once per group.
    overlay.clear();
    for (std::size_t lane = 0; lane < group_size; ++lane) {
      overlay.push_back(view.template overlay_entry<Word>(
          lane, view.overlay_node(lane)));
    }
    finalize_overlay(overlay);
  }
  // Final-state divergence for models without convergence retirement (their
  // undetected lanes map to latent/silent after the loop).
  [[maybe_unused]] Word final_differs = T::zero();

  for (std::size_t t = first_cycle; t < num_cycles; ++t) {
    // Inject the lanes whose cycle has arrived. SEU/MBU flips happen in
    // state(t), before cycle t evaluates — the upset hits the new state;
    // an overlay model's lane instead contributes an overlay entry so the
    // fault lands inline during this cycle's evaluation.
    if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
      overlay.clear();
    }
    [[maybe_unused]] bool thin_now = false;
    [[maybe_unused]] const std::size_t inject_begin = cursor;
    while (cursor < order.size() && view.cycle(order[cursor]) == t) {
      const std::uint32_t lane = order[cursor];
      view.inject(engine, lane);
      if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
        overlay.push_back(view.template overlay_entry<Word>(
            lane, view.overlay_node(lane)));
      }
      if constexpr (View::kLatchThinning) {
        thin_now = thin_now || view.lane_thins(lane);
      }
      injected |= T::lane_bit(lane);
      ++cursor;
    }

    const BitVec& inputs = testbench_.vectors()[t];
    if constexpr (View::kHasOverlay) {
      if constexpr (!View::kOverlayEveryCycle) {
        finalize_overlay(overlay);
      }
      engine.eval_overlay(inputs, overlay);
    } else {
      engine.eval(inputs);
    }
    ++scratch.eval_cycles;
    scratch.eval_instrs += program_size;
    scratch.eval_slot_bytes += slot_bytes;

    const Word mismatch = engine.output_mismatch_lanes(golden_.outputs[t]) &
                          injected & ~classified;
    if (T::any(mismatch)) {
      for (std::size_t lane = 0; lane < group_size; ++lane) {
        if (T::test(mismatch, static_cast<unsigned>(lane))) {
          outcomes[lane].cls = FaultClass::kFailure;
          outcomes[lane].detect_cycle = static_cast<std::uint32_t>(t);
          if (!sigs.empty()) {
            // Failure signature: faulty XOR golden outputs at the detect
            // cycle (the serial dictionary's syndrome, same hash).
            BitVec syndrome = engine.lane_outputs(static_cast<unsigned>(lane));
            syndrome ^= golden_.outputs[t];
            sigs[lane] = syndrome.hash();
          }
        }
      }
      classified |= mismatch;
    }

    engine.step();

    const BitVec& next_state = golden_.states[t + 1];
    if constexpr (View::kLatchThinning) {
      // Latching-window thinning: a sub-full-width pulse misses some
      // destination FFs' setup windows; those latch the golden next-state
      // bit instead of the transient-disturbed D.
      if (thin_now) {
        for (std::size_t c = inject_begin; c < cursor; ++c) {
          const std::uint32_t lane = order[c];
          if (!view.lane_thins(lane)) continue;
          for (std::uint32_t ff = 0; ff < next_state.size(); ++ff) {
            if (!view.latches(lane, ff)) {
              engine.force_state_lanes(ff, T::lane_bit(lane),
                                       next_state.get(ff));
            }
          }
        }
      }
    }

    if constexpr (View::kRetireOnConvergence) {
      const Word differs = engine.state_mismatch_lanes(next_state);
      const Word converged = injected & ~classified & ~differs;
      if (T::any(converged)) {
        for (std::size_t lane = 0; lane < group_size; ++lane) {
          if (T::test(converged, static_cast<unsigned>(lane))) {
            outcomes[lane].cls = FaultClass::kSilent;
            outcomes[lane].converge_cycle = static_cast<std::uint32_t>(t + 1);
          }
        }
        classified |= converged;
      }
    } else if (t + 1 == num_cycles) {
      final_differs = engine.state_mismatch_lanes(next_state);
    }

    if (classified == group_mask) {
      return;  // every lane graded — skip the testbench tail entirely
    }

    // Fast-forward: when every already-injected lane is graded, the pending
    // lanes are bit-identical to the golden machine, so jump straight to the
    // next injection cycle (the cursor head) from the golden state.
    if (!T::any(injected & ~classified) && cursor < order.size()) {
      const std::uint32_t next_cycle = view.cycle(order[cursor]);
      if (next_cycle > t + 1) {
        engine.broadcast_state(golden_.states[next_cycle]);
        t = next_cycle - 1;  // loop increment lands on next_cycle
      }
    }
  }
  if constexpr (!View::kRetireOnConvergence) {
    // Test-pattern mapping for undetected permanent faults: latent when the
    // final state still differs from golden (excited but unobserved),
    // silent when it does not. No converge_cycle — the fault never goes
    // away.
    const Word benign = group_mask & ~classified & ~final_differs;
    for (std::size_t lane = 0; lane < group_size; ++lane) {
      if (T::test(benign, static_cast<unsigned>(lane))) {
        outcomes[lane].cls = FaultClass::kSilent;
      }
    }
  }
  // Remaining unclassified lanes stay latent (their final state differs and
  // no output ever deviated).
}

}  // namespace femu
