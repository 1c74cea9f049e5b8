#pragma once

#include <cstdint>
#include <span>

#include "common/error.h"
#include "fault/fault.h"
#include "fault/mbu.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/circuit.h"
#include "sim/compiled_kernel.h"
#include "sim/lane_word.h"

namespace femu {

/// Fault-model descriptor — the one place a fault model's mechanics live.
///
/// `ParallelFaultSimulator` is a single generic campaign engine; everything
/// model-specific is answered by the matching FaultModelTraits
/// specialization, instantiated once per campaign:
///
///   FaultT              — the fault record the caller grades
///   kDescriptor         — stable descriptor name ("model:mechanism"), the
///                         string the CLI/bench JSON reports
///   kUsesOverlay        — the fault enters through the kernel's
///                         instruction-stream overlay (compiled backend
///                         only) instead of state-bit flips before eval;
///                         overlay campaigns run the raw kernel, state-bit
///                         ones the FF-model optimized kernel
///   kOverlayOp          — which overlay op the model emits (see
///                         CompiledKernel::OverlayEntry's op table)
///   kOverlayEveryCycle  — the overlay applies on every cycle (permanent
///                         fault) rather than only on the injection cycle
///   kRetireOnConvergence— a lane whose state re-converges to golden is
///                         graded silent and retired; false for permanent
///                         faults, which can be re-excited later (their
///                         undetected lanes map to latent/silent by the
///                         final-state comparison instead)
///   kSiteKeyed          — schedule keys live in gate-site (node-id) space
///                         instead of flip-flop space
///   kLatchThinning      — lanes may carry a sub-full-width transient whose
///                         latching is thinned per destination FF
///                         (pulse-width SET)
///   cycle/schedule_site — the (cycle, site) schedule key of a fault
///   inject              — state-bit entry (no-op for overlay models)
///   overlay_node/entry  — overlay destination and op-tagged lane masks
///   validate            — per-fault precondition checks
///
/// Adding a fault model = adding a FaultT, one specialization here, and a
/// public entry point wrapping run_model<Traits>() in the model's result
/// shape (see DESIGN.md, "adding a fault model").
template <FaultModel M>
struct FaultModelTraits;

/// The overlay op a model emits (lowered to OverlayEntry keep/flip masks).
enum class OverlayOp : std::uint8_t {
  kNone,   ///< no overlay — state-bit injection
  kXor,    ///< invert the lane (SET transient)
  kForce,  ///< drive the lane to a fixed value (stuck-at-0/1)
};

[[nodiscard]] constexpr const char* overlay_op_name(OverlayOp op) noexcept {
  switch (op) {
    case OverlayOp::kNone: return "none";
    case OverlayOp::kXor: return "xor";
    case OverlayOp::kForce: return "and-or";
  }
  return "?";
}

template <>
struct FaultModelTraits<FaultModel::kSeu> {
  using FaultT = Fault;
  static constexpr FaultModel kModel = FaultModel::kSeu;
  static constexpr const char* kDescriptor = "seu:state-xor";
  static constexpr bool kUsesOverlay = false;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kNone;
  static constexpr bool kOverlayEveryCycle = false;
  static constexpr bool kRetireOnConvergence = true;
  static constexpr bool kSiteKeyed = false;
  static constexpr bool kLatchThinning = false;

  static std::uint32_t cycle(const FaultT& f) noexcept { return f.cycle; }
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.ff_index;
  }
  template <typename Engine>
  static void inject(Engine& engine, const FaultT& f, unsigned lane) {
    engine.flip_state_bit(f.ff_index, lane);
  }
  static constexpr std::uint32_t overlay_node(const FaultT&) noexcept {
    return kInvalidNode;
  }
  static void validate(const Circuit& circuit, std::size_t num_cycles,
                       const FaultT& f) {
    FEMU_CHECK(f.cycle < num_cycles, "fault cycle ", f.cycle,
               " beyond testbench length ", num_cycles);
    FEMU_CHECK(f.ff_index < circuit.num_dffs(), "fault FF ", f.ff_index,
               " out of range");
  }
};

template <>
struct FaultModelTraits<FaultModel::kMbu> {
  using FaultT = MbuFault;
  static constexpr FaultModel kModel = FaultModel::kMbu;
  static constexpr const char* kDescriptor = "mbu:state-xor";
  static constexpr bool kUsesOverlay = false;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kNone;
  static constexpr bool kOverlayEveryCycle = false;
  static constexpr bool kRetireOnConvergence = true;
  static constexpr bool kSiteKeyed = false;
  static constexpr bool kLatchThinning = false;

  static std::uint32_t cycle(const FaultT& f) noexcept { return f.cycle; }
  /// An MBU spans several FFs; its first (lowest-index) FF stands in for
  /// the fault in the schedule key (the schedule never affects outcomes).
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.ff_indices.front();
  }
  template <typename Engine>
  static void inject(Engine& engine, const FaultT& f, unsigned lane) {
    for (const std::uint32_t ff : f.ff_indices) {
      engine.flip_state_bit(ff, lane);
    }
  }
  static constexpr std::uint32_t overlay_node(const FaultT&) noexcept {
    return kInvalidNode;
  }
  static void validate(const Circuit& circuit, std::size_t num_cycles,
                       const FaultT& f) {
    FEMU_CHECK(f.cycle < num_cycles, "MBU cycle ", f.cycle,
               " beyond testbench length ", num_cycles);
    FEMU_CHECK(!f.ff_indices.empty(), "MBU with no flip-flops");
    for (const std::uint32_t ff : f.ff_indices) {
      FEMU_CHECK(ff < circuit.num_dffs(), "MBU FF ", ff, " out of range");
    }
  }
};

template <>
struct FaultModelTraits<FaultModel::kSet> {
  using FaultT = SetFault;
  static constexpr FaultModel kModel = FaultModel::kSet;
  static constexpr const char* kDescriptor = "set:overlay-xor";
  static constexpr bool kUsesOverlay = true;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kXor;
  static constexpr bool kOverlayEveryCycle = false;
  static constexpr bool kRetireOnConvergence = true;
  static constexpr bool kSiteKeyed = true;
  static constexpr bool kLatchThinning = true;

  static std::uint32_t cycle(const FaultT& f) noexcept { return f.cycle; }
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Engine>
  static void inject(Engine&, const FaultT&, unsigned) {}  // overlay-borne
  static std::uint32_t overlay_node(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Word>
  static CompiledKernel::OverlayEntry<Word> overlay_entry(const FaultT&,
                                                          std::uint32_t dest,
                                                          unsigned lane) {
    return CompiledKernel::overlay_xor<Word>(
        dest, LaneTraits<Word>::lane_bit(lane));
  }
  /// Pulse-width thinning: lanes at sub-full width draw a per-destination-FF
  /// setup-window-overlap decision (set_pulse_latches).
  static bool lane_thins(const FaultT& f) noexcept {
    return f.pulse_q < kSetPulseFull;
  }
  static bool latches(const FaultT& f, std::uint32_t ff) noexcept {
    return set_pulse_latches(f.node, f.cycle, ff, f.pulse_q);
  }
  static void validate(const Circuit& circuit, std::size_t num_cycles,
                       const FaultT& f) {
    FEMU_CHECK(f.cycle < num_cycles, "SET cycle ", f.cycle,
               " beyond testbench length ", num_cycles);
    FEMU_CHECK(f.node < circuit.node_count() &&
                   is_comb_cell(circuit.type(f.node)),
               "SET node ", f.node, " is not a combinational gate");
    FEMU_CHECK(f.pulse_q <= kSetPulseFull, "SET pulse step ", f.pulse_q,
               " beyond full width ", kSetPulseFull);
  }
};

template <>
struct FaultModelTraits<FaultModel::kStuckAt> {
  using FaultT = StuckAtFault;
  static constexpr FaultModel kModel = FaultModel::kStuckAt;
  static constexpr const char* kDescriptor = "stuckat:overlay-force";
  static constexpr bool kUsesOverlay = true;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kForce;
  static constexpr bool kOverlayEveryCycle = true;
  static constexpr bool kRetireOnConvergence = false;
  static constexpr bool kSiteKeyed = true;
  static constexpr bool kLatchThinning = false;

  /// Permanent: present from reset, so every fault "injects" at cycle 0.
  static constexpr std::uint32_t cycle(const FaultT&) noexcept { return 0; }
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Engine>
  static void inject(Engine&, const FaultT&, unsigned) {}  // overlay-borne
  static std::uint32_t overlay_node(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Word>
  static CompiledKernel::OverlayEntry<Word> overlay_entry(const FaultT& f,
                                                          std::uint32_t dest,
                                                          unsigned lane) {
    return CompiledKernel::overlay_force<Word>(
        dest, LaneTraits<Word>::lane_bit(lane), f.stuck_one);
  }
  static void validate(const Circuit& circuit, std::size_t /*num_cycles*/,
                       const FaultT& f) {
    FEMU_CHECK(f.node < circuit.node_count() &&
                   is_comb_cell(circuit.type(f.node)),
               "stuck-at node ", f.node, " is not a combinational gate");
  }
};

/// Descriptor name of a model ("model:mechanism") — the string the CLI and
/// bench JSON report next to the model name.
[[nodiscard]] constexpr const char* fault_model_descriptor(
    FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kSeu: return FaultModelTraits<FaultModel::kSeu>::kDescriptor;
    case FaultModel::kMbu: return FaultModelTraits<FaultModel::kMbu>::kDescriptor;
    case FaultModel::kSet: return FaultModelTraits<FaultModel::kSet>::kDescriptor;
    case FaultModel::kStuckAt:
      return FaultModelTraits<FaultModel::kStuckAt>::kDescriptor;
  }
  return "?";
}

[[nodiscard]] constexpr OverlayOp fault_model_overlay_op(
    FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kSeu: return FaultModelTraits<FaultModel::kSeu>::kOverlayOp;
    case FaultModel::kMbu: return FaultModelTraits<FaultModel::kMbu>::kOverlayOp;
    case FaultModel::kSet: return FaultModelTraits<FaultModel::kSet>::kOverlayOp;
    case FaultModel::kStuckAt:
      return FaultModelTraits<FaultModel::kStuckAt>::kOverlayOp;
  }
  return OverlayOp::kNone;
}

/// A campaign's scheduled faults, normalized for the generic pool runner:
/// fault i runs in whichever lane the runner assigns it. Answers, per
/// fault, when it enters (cycle) and how it enters its lane (inject /
/// overlay_entry) — by delegation to the model's FaultModelTraits, so the
/// pool runner is written once against this view and specializes per model
/// purely through `if constexpr` on the descriptor flags (SEU/MBU codegen
/// carries no overlay or thinning code at all).
template <typename Traits>
struct ModelView {
  using FaultT = typename Traits::FaultT;

  std::span<const FaultT> faults;

  static constexpr bool kHasOverlay = Traits::kUsesOverlay;
  static constexpr bool kOverlayEveryCycle = Traits::kOverlayEveryCycle;
  static constexpr bool kRetireOnConvergence = Traits::kRetireOnConvergence;
  static constexpr bool kLatchThinning = Traits::kLatchThinning;

  [[nodiscard]] std::size_t size() const noexcept { return faults.size(); }
  [[nodiscard]] std::uint32_t cycle(std::size_t i) const {
    return Traits::cycle(faults[i]);
  }
  template <typename Engine>
  void inject(Engine& engine, std::size_t i, unsigned lane) const {
    Traits::inject(engine, faults[i], lane);
  }
  template <typename Word>
  [[nodiscard]] CompiledKernel::OverlayEntry<Word> overlay_entry(
      std::size_t i, unsigned lane) const {
    return Traits::template overlay_entry<Word>(
        faults[i], Traits::overlay_node(faults[i]), lane);
  }
  [[nodiscard]] bool lane_thins(std::size_t i) const {
    return Traits::lane_thins(faults[i]);
  }
  [[nodiscard]] bool latches(std::size_t i, std::uint32_t ff) const {
    return Traits::latches(faults[i], ff);
  }
};

}  // namespace femu
