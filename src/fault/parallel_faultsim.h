#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/campaign_result.h"
#include "fault/mbu.h"
#include "fault/model_traits.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/circuit.h"
#include "obs/telemetry.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "stim/testbench.h"

namespace femu {

/// How many faulty machines one lane word carries.
enum class LaneWidth : std::uint32_t {
  k64 = 64,    ///< one uint64_t per signal (classic bit-parallel width;
               ///< the interpreted backend's only width)
  k512 = 512,  ///< eight uint64_t per signal — one zmm register / cache
               ///< line per signal; AVX-512 when the host has it, portable
               ///< limbs otherwise (see sim/simd_dispatch.h)
};

[[nodiscard]] constexpr std::size_t lane_count(LaneWidth w) noexcept {
  return static_cast<std::size_t>(w);
}

/// Campaign engine configuration.
///
/// The default — compiled kernel, 512 lanes, one worker per hardware
/// thread — is the fastest portable setting. The interpreted backend is the original engine, kept selectable as the
/// cross-validation oracle the compiled path is checked against; it always
/// runs 64 lanes and ignores `lanes`.
struct CampaignConfig {
  SimBackend backend = SimBackend::kCompiled;
  /// Lane width of every compiled lane bank (ignored when interpreted).
  LaneWidth lanes = LaneWidth::k512;
  /// Worker threads for pool sharding; 0 = std::thread::hardware_concurrency().
  unsigned num_threads = 0;
  /// Telemetry sink (not owned; must outlive the engine). Null — the
  /// default — is the near-zero-cost fast path: the engine takes no
  /// per-batch timestamps and records nothing. When attached, the engine
  /// emits phase spans, per-retire-batch trace slices and per-worker metric
  /// shards into the collector. Telemetry is provably outcome-neutral:
  /// classifications, signatures and all `last_run_*` work metrics are
  /// bit-identical with a collector attached or not.
  obs::TelemetryCollector* telemetry = nullptr;

  /// Persistent content-addressed artifact cache directory
  /// (fault/artifact_cache.h). Empty — the default — disables caching.
  /// Compiled backend only. When set, construction first tries to adopt the
  /// cached setup artifacts (golden trace, optimized FF-model kernel) keyed
  /// by circuit/testbench/config-rule content hashes plus the optimizer
  /// pipeline hash; any invalid entry degrades totally-and-warned to a
  /// rebuild, and every miss stores the rebuilt artifacts via tmp + atomic
  /// rename. Outcome-neutral: classifications and work metrics are
  /// bit-identical cold vs warm.
  std::string cache_dir{};
};

/// Bit-parallel fault simulation with multi-threaded campaign sharding —
/// the unified campaign engine for every fault model (FaultModel):
///
///   run()         — SEU (flip-flop bit-flips, the paper's model)
///   run_mbu()     — MBU (multi-bit upsets: several FFs flipped together)
///   run_set()     — SET (transient inversions at combinational gate
///                   outputs, optionally pulse-width-limited with per-FF
///                   latching-window thinning; compiled backend only —
///                   injection rides the kernel's instruction-stream
///                   overlay)
///   run_stuckat() — stuck-at-0/1 at combinational gate outputs
///                   (test-pattern grading; compiled backend only — the
///                   permanent force rides the same overlay, op-tagged
///                   AND/OR instead of XOR, applied every cycle)
///
/// One CampaignConfig drives every model with identical sharding,
/// scheduling and classification semantics. Everything model-specific —
/// fault type, injection mechanism (state-bit XOR before eval vs op-tagged
/// instruction-overlay update during eval), overlay emission cadence,
/// schedule key and classification mapping — lives in the model's
/// FaultModelTraits descriptor (fault/model_traits.h); the engine core is
/// instantiated once per model from that descriptor, so a new fault model
/// is one descriptor specialization plus a result-shaping entry point,
/// never a new engine path.
///
/// Faults are sorted cycle-major — by (injection cycle, site) — and cut
/// into consecutive lane-width groups, which are dealt round-robin to
/// P = min(G, max(4, ⌈G/32⌉)) *pools* (G groups). A pool is one lockstep
/// pass over the testbench cycles. Its faulty machines live in *banks*: a
/// bank is one lane word per DFF plus the fault each lane carries, and all
/// of a worker's banks take turns on its engine's slot array through
/// swap_state. Lane k of every signal word carries the bank's machine k.
/// Every cycle evaluates the whole program; golden stimuli, outputs and
/// states are broadcast from the bit-packed GoldenTrace as they are read,
/// so no per-cycle lane-word image is ever materialized.
///
/// Lane refill: a lane is done at its first output mismatch (failure) or
/// state re-convergence (silent), and its lane is free from the next cycle
/// on. At cycle t, the faults injected at t take free lanes — in live banks
/// first, then in idle ones — and a new bank opens from golden state(t)
/// only when every lane is busy. A silent lane already equals golden, so it
/// is preferred; failure lanes are reset to golden(t) with one masked
/// blend_state when their bank swaps in. Banks with no live lane are
/// skipped, and when no bank is live the pool fast-forwards to its next
/// injection cycle. A pool's cost thus follows its faults' own lifetimes
/// instead of each group's slowest fault. Stuck-at faults all enter at
/// cycle 0, so their lanes never refill: a stuck-at pool runs its groups
/// one after another on a single bank.
///
/// Pools are independent — they share only the read-only kernel and the
/// golden trace — so the campaign shards them across workers pulling pool
/// indices from an atomic counter. P depends only on the fault list, every
/// pool writes its own outcome slots and the schedule permutation is
/// inverted before returning, so results align with the caller's fault
/// order and outcomes and work counters are bit-identical for any thread
/// count; outcomes are also identical across backend and lane width. At
/// most P workers run, so a campaign of up to 128 groups (b14's complete
/// SEU list is 68) uses at most 4 threads: fewer, longer pools trade
/// parallelism for total work (DESIGN.md, "Pool count").
class ParallelFaultSimulator {
 public:
  ParallelFaultSimulator(const Circuit& circuit, const Testbench& testbench,
                         CampaignConfig config = {});

  /// Grades every fault; outcomes align with input order regardless of the
  /// internal schedule. Faults may be in any order.
  [[nodiscard]] CampaignResult run(std::span<const Fault> faults);

  /// Grades an MBU campaign through the same sharded, scheduled engine
  /// stack (an MBU lane flips several state bits at once). Any backend and
  /// lane width.
  [[nodiscard]] MbuCampaignResult run_mbu(std::span<const MbuFault> faults);

  /// Grades a SET campaign: each lane's gate output is XOR-inverted inline
  /// during its injection cycle's evaluation via the kernel's injection
  /// overlay, then the latched divergence is tracked exactly like an SEU's.
  /// Sub-full-width pulses (SetFault::pulse_q) additionally thin the latch
  /// per destination flip-flop by the deterministic setup-window draw.
  /// Compiled backend only (the overlay is an instruction-stream mechanism);
  /// all lane widths.
  [[nodiscard]] SetCampaignResult run_set(std::span<const SetFault> faults);

  /// Grades a stuck-at campaign with test-pattern semantics: each lane's
  /// gate output is forced to its stuck value on **every** cycle's
  /// evaluation (an op-tagged AND/OR overlay instead of SET's XOR), failure
  /// means the testbench detected the fault at a primary output, and
  /// undetected lanes run to the end of the testbench (no convergence
  /// retirement — a permanent fault can be re-excited) before mapping to
  /// latent/silent by the final-state comparison. Compiled backend only.
  [[nodiscard]] StuckAtCampaignResult run_stuckat(
      std::span<const StuckAtFault> faults);

  [[nodiscard]] const GoldenTrace& golden() const noexcept { return golden_; }

  [[nodiscard]] const CampaignConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }

  [[nodiscard]] const Testbench& testbench() const noexcept {
    return testbench_;
  }

  /// Streaming retire notification: called as faults are graded, before
  /// the campaign completes — the hook the crash-safe campaign journal
  /// (fault/journal.h) appends records through. `fault_indices` are
  /// positions in the *caller's* fault list (the schedule permutation is
  /// already inverted), `outcomes` their gradings in the same order, and
  /// `signature_hashes` the failure syndromes (empty unless signature
  /// capture is enabled; zero for non-failure faults).
  ///
  /// Each pool delivers its retirements in batches of exactly one lane
  /// width as they fill, plus one smaller batch when the pool ends, so at
  /// most one lane width of graded work per pool is unreported at any
  /// time. Every fault arrives in exactly one batch. Invoked from worker
  /// threads, possibly concurrently from several workers, so the callback
  /// must be thread-safe. The spans are only valid during the call.
  using RetireCallback = std::function<void(
      std::span<const std::uint32_t> fault_indices,
      std::span<const FaultOutcome> outcomes,
      std::span<const std::uint64_t> signature_hashes)>;

  /// Installs (or clears, with an empty function) the retire callback for
  /// subsequent runs.
  void set_retire_callback(RetireCallback callback) {
    retire_cb_ = std::move(callback);
  }

  /// Enables failure-signature capture: every failure lane's first
  /// deviating output vector is XORed against golden at the detect cycle
  /// and hashed (BitVec::hash of the full-width syndrome — identical to
  /// the serial FaultDictionary syndrome). Off by default; the
  /// per-failure BitVec materialization costs a few percent on
  /// failure-heavy campaigns.
  void set_capture_signatures(bool on) { capture_signatures_ = on; }

  [[nodiscard]] bool capture_signatures() const noexcept {
    return capture_signatures_;
  }

  /// Caller-aligned failure signature hashes of the last run (empty when
  /// capture was off; zero at non-failure positions). Deterministic: a
  /// lane's syndrome depends only on its own fault, never on grouping,
  /// schedule, width or thread count.
  [[nodiscard]] std::span<const std::uint64_t> last_run_signatures()
      const noexcept {
    return last_run_signatures_;
  }

  /// Structured scalar telemetry: the engine's construction-phase timings
  /// plus every work metric of the last run, in one snapshot. Always
  /// populated (no collector required); the `last_run_*` accessors below
  /// are thin views into this struct, kept for API continuity.
  [[nodiscard]] const obs::CampaignTelemetry& telemetry_snapshot()
      const noexcept {
    return telem_;
  }

  /// Worker threads the last run() actually used.
  [[nodiscard]] unsigned last_run_threads() const noexcept {
    return telem_.threads;
  }

  [[nodiscard]] double last_run_seconds() const noexcept {
    return telem_.seconds;
  }

  /// Circuit-evaluation cycles spent in the last run: one per live bank
  /// per testbench cycle, summed over all pools (engine efficiency metric
  /// used by the microbenches). One eval of a 512-lane bank counts as one
  /// cycle, like one eval of a 64-lane bank (see last_run_eval_instrs for
  /// the finer metric). Idle banks and fast-forwarded cycles cost nothing.
  [[nodiscard]] std::uint64_t last_run_eval_cycles() const noexcept {
    return telem_.eval_cycles;
  }

  /// Kernel instructions executed in the last run, summed over all pools
  /// (eval cycles x executed program size).
  [[nodiscard]] std::uint64_t last_run_eval_instrs() const noexcept {
    return telem_.eval_instrs;
  }

  /// Slot-storage bytes the eval loops streamed over in the last run: every
  /// eval adds the full slot array times the lane word size. Divided by
  /// last_run_eval_instrs() this is the engine's bytes-per-instruction — the
  /// memory-wall metric the bench matrix reports per circuit and lane width.
  [[nodiscard]] std::uint64_t last_run_eval_slot_bytes() const noexcept {
    return telem_.eval_slot_bytes;
  }

  /// Bytes streamed per executed kernel instruction in the last run — the
  /// memory-wall ratio (last_run_eval_slot_bytes / last_run_eval_instrs).
  [[nodiscard]] double last_run_eval_bytes_per_instr() const noexcept {
    return telem_.bytes_per_instr();
  }

  /// How many lane-width groups the last run dealt to its pools, per width
  /// tier (see obs::GroupWidthCounts). Only the run's lane width is
  /// non-zero.
  using GroupWidthCounts = obs::GroupWidthCounts;

  [[nodiscard]] const GroupWidthCounts& last_run_group_widths() const noexcept {
    return telem_.group_widths;
  }

  /// Fraction of lane slots in the last run's groups that carried a fault:
  /// faults / (sum of group widths). Below 1.0 only when the last group is
  /// partial. See CampaignTelemetry::lane_cycle_occupancy for the share of
  /// evaluated lane-cycles that did useful work.
  [[nodiscard]] double last_run_lane_occupancy() const noexcept {
    return telem_.lane_occupancy;
  }

 private:
  /// Per-worker state reused across every pool the worker runs.
  struct WorkerScratch {
    std::vector<std::uint32_t> pool;  ///< the current pool's fault indices
    // Retire-callback batch in caller order.
    std::vector<std::uint32_t> cb_indices;
    std::vector<FaultOutcome> cb_outcomes;
    std::vector<std::uint64_t> cb_sigs;
    std::uint64_t eval_cycles = 0;
    std::uint64_t eval_instrs = 0;
    std::uint64_t eval_slot_bytes = 0;
    std::uint64_t live_lane_cycles = 0;
    /// This worker's telemetry sink, or null when telemetry is off — the
    /// runner takes timestamps only when this is set.
    obs::WorkerTelemetry* telemetry = nullptr;
    /// Start time and eval_instrs at the open retire batch's start.
    std::uint64_t batch_begin_ns = 0;
    std::uint64_t batch_instrs0 = 0;
  };

  /// Grades one pool on `engine`: `pool` holds scheduled fault indices in
  /// cycle order, and each finished fault's lane takes the next arrival.
  /// Writes outcomes (and, when `sigs` is non-empty, failure signatures) at
  /// the faults' scheduled indices, and hands retired indices to
  /// `on_retire` in batches of at most one lane width.
  template <typename Engine, typename View, typename OnRetire>
  void run_pool(Engine& engine, const View& view,
                std::span<const std::uint32_t> pool,
                std::span<FaultOutcome> outcomes,
                std::span<std::uint64_t> sigs, const OnRetire& on_retire,
                WorkerScratch& scratch) const;

  /// Shards the `num_pools` pools of a run across `num_workers` workers,
  /// each owning the engine `make_engine()` returns;
  /// `run_one(engine, p, scratch)` grades pool p.
  template <typename MakeEngine, typename RunOne>
  void run_sharded(const MakeEngine& make_engine, const RunOne& run_one,
                   std::size_t num_pools, unsigned num_workers);

  /// The generic campaign driver every public entry point wraps: validates
  /// the faults through the model descriptor, sorts them cycle-major,
  /// dispatches on backend x lane width, shards the pools (running them
  /// through ModelView<Traits>) and scatters the outcomes back to caller
  /// order.
  template <typename Traits>
  void run_model(std::span<const typename Traits::FaultT> faults,
                 std::span<FaultOutcome> outcomes);

  /// Resolves the kernel the next run executes from the model: state-bit
  /// models (SEU/MBU) run the FF-model optimized kernel (sim/kernel_opt.h,
  /// empty preserve set), built on first use and kept across runs; overlay
  /// models (SET/stuck-at) inject into gate slots and run the raw kernel,
  /// as does the interpreted backend (no kernel at all). Sets run_kernel_
  /// and the telemetry optimizer counters, which read zero on the raw
  /// kernel.
  void select_run_kernel(bool overlay_model);

  const Circuit& circuit_;
  const Testbench& testbench_;
  CampaignConfig config_;
  /// Lane width banks actually run at: config_.lanes, or 64 when
  /// interpreted.
  LaneWidth lanes_ = LaneWidth::k64;
  GoldenTrace golden_;
  std::shared_ptr<const CompiledKernel> kernel_;  // null when interpreted
  /// The FF-model optimized kernel (empty preserve set), built lazily or
  /// adopted from the artifact cache. kernel_ itself always stays the raw
  /// kernel the golden trace came from.
  std::shared_ptr<const CompiledKernel> opt_kernel_ff_;
  /// The kernel the current run executes (set by select_run_kernel at the
  /// top of run_model; campaign runs are serial per simulator object, and
  /// worker scratch never outlives a run, so per-run selection is safe).
  std::shared_ptr<const CompiledKernel> run_kernel_;
  RetireCallback retire_cb_;
  bool capture_signatures_ = false;
  std::vector<std::uint64_t> last_run_signatures_;
  /// Scalar telemetry backing every last_run_* accessor (see
  /// telemetry_snapshot). Construction phases are written once in the
  /// constructor; run fields are overwritten by each run.
  obs::CampaignTelemetry telem_;
};

}  // namespace femu
