#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "netlist/circuit.h"
#include "sim/lane_word.h"

namespace femu {

struct ArtifactCacheAccess;

/// Which evaluation backend a simulator runs on.
///
/// kInterpreted walks the Circuit object graph every cycle (type lookup,
/// fanin-span chase per node) — the original engines, kept as the reference
/// and as the baseline the benches measure speedups against. kCompiled
/// executes a CompiledKernel instruction stream.
enum class SimBackend : std::uint8_t {
  kInterpreted,
  kCompiled,
};

[[nodiscard]] constexpr const char* sim_backend_name(SimBackend b) noexcept {
  return b == SimBackend::kInterpreted ? "interpreted" : "compiled";
}

/// A Circuit lowered once into a flat, cache-friendly instruction stream.
///
/// Lowering resolves everything the interpreted engines re-derive per node
/// per cycle: the program holds only combinational cells, in topological
/// (node-id) order, with the opcode and the fanin value-slot indices baked
/// into each instruction. Sources are handled by precomputed index tables:
/// primary inputs and DFF Q pins are written into their slots before eval,
/// constants are written once by init(), and DFF D / output drivers are read
/// through dff_d_slots() / output_slots().
///
/// The kernel is execution-state-free and therefore shareable: one kernel
/// serves any number of engines concurrently (the threaded campaign sharder
/// builds one kernel and hands it to every worker). The eval loop is
/// templated on the lane word type, so the same program runs the scalar
/// (Word8), 64-lane (uint64_t) and 512-lane (Word512) engines.
class CompiledKernel {
 public:
  struct Instr {
    std::uint32_t dest = 0;
    std::uint32_t a = 0;  // fanin 0 slot (mux: select)
    std::uint32_t b = 0;  // fanin 1 slot (mux: d0); == a for unary cells
    std::uint32_t c = 0;  // fanin 2 slot (mux: d1); == a when unused
    CellType op = CellType::kBuf;
    /// Per-operand complement flags (bit 0 → ~a, bit 1 → ~b, bit 2 → ~c):
    /// the optimizer absorbs BUF/NOT producers into their consumers by
    /// flipping these bits instead of keeping the inverter instruction
    /// around (see sim/kernel_opt.h). Lowering always emits 0; every eval
    /// path (generic, AVX-512, limb fallback) honours the flags.
    std::uint8_t neg = 0;
  };

  /// Lowers `circuit` (validates it first). The circuit must outlive the
  /// kernel — the kernel keeps a reference for diagnostics and index order.
  explicit CompiledKernel(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }

  /// One value slot per circuit node; slot index == NodeId.
  [[nodiscard]] std::size_t num_slots() const noexcept { return num_slots_; }

  [[nodiscard]] std::span<const Instr> program() const noexcept {
    return program_;
  }

  [[nodiscard]] std::span<const std::uint32_t> input_slots() const noexcept {
    return input_slots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> dff_slots() const noexcept {
    return dff_slots_;
  }
  /// Slot of the D-pin driver of DFF i (read by step()).
  [[nodiscard]] std::span<const std::uint32_t> dff_d_slots() const noexcept {
    return dff_d_slots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> output_slots() const noexcept {
    return output_slots_;
  }

  /// Zeroes `values` and writes the constant slots. Call once per engine
  /// before the first eval (constants are never re-evaluated).
  template <typename Word>
  void init(std::span<Word> values) const {
    using T = LaneTraits<Word>;
    for (auto& v : values) v = T::zero();
    for (const std::uint32_t slot : const1_slots_) values[slot] = T::ones();
  }

  /// One injection point for the overlay eval: after the instruction
  /// writing slot `dest` executes, the computed value receives the masked
  /// update
  ///
  ///     value = (value & keep) ^ flip
  ///
  /// which expresses every overlay op a fault model needs, branch-free:
  ///
  ///   op           | lanes m         | keep | flip | model
  ///   -------------|-----------------|------|------|------------------
  ///   XOR (invert) | value ^= m      | ones | m    | SET transient
  ///   AND (force 0)| value &= ~m     | ~m   | 0    | stuck-at-0
  ///   OR  (force 1)| value |= m      | ~m   | m    | stuck-at-1
  ///
  /// (see overlay_xor/overlay_force below). Entries compose: applying
  /// (k1,f1) then (k2,f2) equals the single entry (k1&k2, (f1&k2)^f2), so
  /// several lanes' ops on the same destination — even mixed ops — merge
  /// into one entry. Overlay lists are sorted by dest and merged inline
  /// against the instruction stream, which is dest-ascending, so injection
  /// costs one compare per instruction on overlay cycles and nothing on all
  /// others.
  template <typename Word>
  struct OverlayEntry {
    std::uint32_t dest = 0;
    Word keep{};
    Word flip{};
  };

  /// XOR overlay entry: invert the lanes of `m` (SET).
  template <typename Word>
  [[nodiscard]] static OverlayEntry<Word> overlay_xor(std::uint32_t dest,
                                                      Word m) {
    return {dest, LaneTraits<Word>::ones(), m};
  }

  /// Force overlay entry: drive the lanes of `m` to `value` (stuck-at).
  template <typename Word>
  [[nodiscard]] static OverlayEntry<Word> overlay_force(std::uint32_t dest,
                                                        Word m, bool value) {
    return {dest, ~m, value ? m : LaneTraits<Word>::zero()};
  }

  /// Executes one instruction (shared by the plain and overlay eval loops).
  /// Operand complements (Instr::neg) take a single highly-predictable
  /// branch: a raw stream carries no flags at all and an optimized stream
  /// flags only a small minority of instructions, so the neg == 0 body —
  /// the exact pre-optimizer codegen, no masking — is what the loop
  /// actually runs; paying the flag XORs unconditionally instead costs
  /// ~15 % of b14 campaign throughput at 512 lanes.
  template <typename Word>
  static inline void exec_instr(const Instr& in, Word* values) {
    using T = LaneTraits<Word>;
    if (in.neg == 0) [[likely]] {
      switch (in.op) {
        case CellType::kBuf:
          values[in.dest] = values[in.a];
          break;
        case CellType::kNot:
          values[in.dest] = ~values[in.a];
          break;
        case CellType::kAnd:
          values[in.dest] = values[in.a] & values[in.b];
          break;
        case CellType::kOr:
          values[in.dest] = values[in.a] | values[in.b];
          break;
        case CellType::kNand:
          values[in.dest] = ~(values[in.a] & values[in.b]);
          break;
        case CellType::kNor:
          values[in.dest] = ~(values[in.a] | values[in.b]);
          break;
        case CellType::kXor:
          values[in.dest] = values[in.a] ^ values[in.b];
          break;
        case CellType::kXnor:
          values[in.dest] = ~(values[in.a] ^ values[in.b]);
          break;
        case CellType::kMux:
          values[in.dest] = (values[in.a] & values[in.c]) |
                            (~values[in.a] & values[in.b]);
          break;
        default:
          break;  // sources/DFFs never appear in the program
      }
      return;
    }
    const Word a = values[in.a] ^ T::broadcast((in.neg & 1) != 0);
    switch (in.op) {
      case CellType::kBuf:
        values[in.dest] = a;
        break;
      case CellType::kNot:
        values[in.dest] = ~a;
        break;
      case CellType::kAnd:
        values[in.dest] = a & (values[in.b] ^ T::broadcast((in.neg & 2) != 0));
        break;
      case CellType::kOr:
        values[in.dest] = a | (values[in.b] ^ T::broadcast((in.neg & 2) != 0));
        break;
      case CellType::kNand:
        values[in.dest] =
            ~(a & (values[in.b] ^ T::broadcast((in.neg & 2) != 0)));
        break;
      case CellType::kNor:
        values[in.dest] =
            ~(a | (values[in.b] ^ T::broadcast((in.neg & 2) != 0)));
        break;
      case CellType::kXor:
        values[in.dest] = a ^ values[in.b] ^ T::broadcast((in.neg & 2) != 0);
        break;
      case CellType::kXnor:
        values[in.dest] =
            ~(a ^ values[in.b] ^ T::broadcast((in.neg & 2) != 0));
        break;
      case CellType::kMux: {
        const Word b = values[in.b] ^ T::broadcast((in.neg & 2) != 0);
        const Word c = values[in.c] ^ T::broadcast((in.neg & 4) != 0);
        values[in.dest] = (a & c) | (~a & b);
        break;
      }
      default:
        break;  // sources/DFFs never appear in the program
    }
  }

  /// Executes an instruction sequence. `values` must hold num_slots() words
  /// with every slot the sequence reads already loaded.
  template <typename Word>
  static void eval_instrs(std::span<const Instr> instrs, Word* values) {
    for (const Instr& in : instrs) {
      exec_instr(in, values);
    }
  }

  /// Executes an instruction sequence with an injection overlay merged in:
  /// `overlay` must be sorted by dest (strictly ascending). Entries whose
  /// dest is not written by `instrs` are skipped.
  template <typename Word>
  static void eval_instrs_overlay(std::span<const Instr> instrs, Word* values,
                                  std::span<const OverlayEntry<Word>> overlay) {
    const OverlayEntry<Word>* ov = overlay.data();
    const OverlayEntry<Word>* const ov_end = ov + overlay.size();
    for (const Instr& in : instrs) {
      exec_instr(in, values);
      while (ov != ov_end && ov->dest <= in.dest) {
        if (ov->dest == in.dest) {
          values[in.dest] = (values[in.dest] & ov->keep) ^ ov->flip;
        }
        ++ov;
      }
    }
  }

  /// Executes the full combinational program.
  template <typename Word>
  void eval(Word* values) const {
    eval_instrs<Word>(program_, values);
  }

  /// Instruction-reduction accounting of the optimizer pass pipeline
  /// (sim/kernel_opt.h). `raw_instrs - opt_instrs == absorbed + folded +
  /// dead` by construction; all zero on an unoptimized kernel.
  struct OptStats {
    std::size_t raw_instrs = 0;   ///< program size before optimization
    std::size_t opt_instrs = 0;   ///< program size after optimization
    std::size_t absorbed = 0;     ///< BUF/NOT deleted into operand neg flags
    std::size_t folded = 0;       ///< instructions folded to constants
    std::size_t dead = 0;         ///< unreachable instructions eliminated
    std::size_t preserved = 0;    ///< preserve-set sites kept materialized
    [[nodiscard]] bool optimized() const noexcept {
      return raw_instrs != 0;
    }
  };

  [[nodiscard]] const OptStats& opt_stats() const noexcept {
    return opt_stats_;
  }

 private:
  /// The optimizer (sim/kernel_opt.cpp) clones a kernel and rewrites
  /// program_/const1_slots_ in place under the preserve contract.
  friend class KernelOptimizer;
  /// The artifact cache (fault/artifact_cache.cpp) serializes an optimized
  /// kernel and reconstructs it against a freshly validated circuit.
  friend struct ArtifactCacheAccess;
  CompiledKernel() = default;

  const Circuit* circuit_ = nullptr;
  std::size_t num_slots_ = 0;
  std::vector<Instr> program_;
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> dff_slots_;
  std::vector<std::uint32_t> dff_d_slots_;
  std::vector<std::uint32_t> output_slots_;
  std::vector<std::uint32_t> const1_slots_;
  OptStats opt_stats_;
};

/// Word512's hot loops are runtime-dispatched: one binary carries both an
/// AVX-512 implementation (a separate translation unit compiled with
/// -mavx512f, see sim/compiled_kernel_avx512.cpp) and the portable limb
/// instantiation; a CPUID check picks the path once at first use. See
/// sim/simd_dispatch.h for the feature query.
template <>
void CompiledKernel::eval_instrs<Word512>(std::span<const Instr> instrs,
                                          Word512* values);
template <>
void CompiledKernel::eval_instrs_overlay<Word512>(
    std::span<const Instr> instrs, Word512* values,
    std::span<const OverlayEntry<Word512>> overlay);

/// Builds a shareable kernel for `circuit`.
[[nodiscard]] std::shared_ptr<const CompiledKernel> compile_kernel(
    const Circuit& circuit);

/// Generic lane-parallel engine executing a CompiledKernel.
///
/// One instantiation per lane width: LaneEngine<Word8> is the compiled
/// scalar machine, LaneEngine<std::uint64_t> the 64-lane machine and
/// LaneEngine<Word512> the 512-lane machine. Lane k of every value word carries machine k. Stimuli and
/// golden comparisons take the bit-packed golden vectors and broadcast each
/// bit as it is read — one mask per signal, never a materialized per-cycle
/// lane-word image.
template <typename Word>
class LaneEngine {
 public:
  using Traits = LaneTraits<Word>;
  static constexpr std::size_t kLanes = Traits::kLanes;

  explicit LaneEngine(std::shared_ptr<const CompiledKernel> kernel)
      : kernel_(std::move(kernel)),
        values_(kernel_->num_slots()),
        state_(kernel_->dff_slots().size()) {
    kernel_->init(std::span<Word>(values_));
  }

  [[nodiscard]] const CompiledKernel& kernel() const noexcept {
    return *kernel_;
  }
  [[nodiscard]] const Circuit& circuit() const noexcept {
    return kernel_->circuit();
  }

  void reset() {
    kernel_->init(std::span<Word>(values_));
    for (auto& s : state_) s = Traits::zero();
  }

  /// Broadcasts the scalar state to every lane.
  void broadcast_state(const BitVec& state) {
    blend_state(state, Traits::ones());
  }

  /// Broadcasts the scalar state to the lanes of `lanes` only; the other
  /// lanes keep their state.
  void blend_state(const BitVec& state, const Word& lanes) {
    const std::span<const std::uint64_t> bits = state.words();
    for (std::size_t i = 0; i < state_.size(); ++i) {
      state_[i] = (state_[i] & ~lanes) | (bit_word(bits, i) & lanes);
    }
  }

  /// XORs lane `lane` of flip-flop `ff_index` (SEU injection).
  void flip_state_bit(std::size_t ff_index, unsigned lane) {
    state_[ff_index] ^= Traits::lane_bit(lane);
  }

  /// Exchanges the engine's DFF state with `state` (one word per DFF) in
  /// O(1): several state banks take turns on one slot array.
  void swap_state(std::vector<Word>& state) noexcept { state_.swap(state); }

  /// Combinational evaluation with `inputs` broadcast to every lane.
  void eval(const BitVec& inputs) {
    load_inputs_and_state(inputs);
    kernel_->eval(values_.data());
  }

  /// eval with an injection overlay (sorted by dest) merged into the
  /// instruction stream — see CompiledKernel::OverlayEntry.
  void eval_overlay(
      const BitVec& inputs,
      std::span<const CompiledKernel::OverlayEntry<Word>> overlay) {
    load_inputs_and_state(inputs);
    if (overlay.empty()) {
      kernel_->eval(values_.data());
    } else {
      CompiledKernel::eval_instrs_overlay<Word>(kernel_->program(),
                                                values_.data(), overlay);
    }
  }

  /// Clock edge: state <- D in every lane.
  void step() {
    const auto d_slots = kernel_->dff_d_slots();
    for (std::size_t i = 0; i < d_slots.size(); ++i) {
      state_[i] = values_[d_slots[i]];
    }
  }

  /// Forces the lanes of `lanes` in flip-flop `ff_index`'s state word to
  /// `golden_bit` — latching-window thinning, applied between step() and the
  /// state-mismatch query.
  void force_state_lanes(std::size_t ff_index, Word lanes, bool golden_bit) {
    state_[ff_index] = (state_[ff_index] & ~lanes) |
                       (Traits::broadcast(golden_bit) & lanes);
  }

  void cycle(const BitVec& inputs) {
    eval(inputs);
    step();
  }

  /// Lanes whose primary outputs differ from the golden outputs. Call after
  /// eval().
  [[nodiscard]] Word output_mismatch_lanes(const BitVec& golden_outputs) const {
    const auto outs = kernel_->output_slots();
    const std::span<const std::uint64_t> bits = golden_outputs.words();
    Word mismatch = Traits::zero();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      mismatch |= values_[outs[i]] ^ bit_word(bits, i);
    }
    return mismatch;
  }

  /// Lanes whose flip-flop state differs from the golden state.
  [[nodiscard]] Word state_mismatch_lanes(const BitVec& golden_state) const {
    const std::span<const std::uint64_t> bits = golden_state.words();
    Word mismatch = Traits::zero();
    for (std::size_t i = 0; i < state_.size(); ++i) {
      mismatch |= state_[i] ^ bit_word(bits, i);
    }
    return mismatch;
  }

  /// State of one lane as a scalar BitVec (diagnostics / tests).
  [[nodiscard]] BitVec lane_state(unsigned lane) const {
    BitVec out(state_.size());
    for (std::size_t i = 0; i < state_.size(); ++i) {
      out.set(i, Traits::test(state_[i], lane));
    }
    return out;
  }

  /// Outputs of one lane after eval() (diagnostics / tests).
  [[nodiscard]] BitVec lane_outputs(unsigned lane) const {
    const auto outs = kernel_->output_slots();
    BitVec out(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      out.set(i, Traits::test(values_[outs[i]], lane));
    }
    return out;
  }

  /// Raw lane word of a node after eval() (diagnostics).
  [[nodiscard]] Word node_word(NodeId id) const { return values_[id]; }

 private:
  /// Bit `i` of a packed golden vector, broadcast to every lane.
  [[nodiscard]] static Word bit_word(std::span<const std::uint64_t> bits,
                                     std::size_t i) {
    return Traits::broadcast(((bits[i >> 6] >> (i & 63)) & 1) != 0);
  }

  void load_inputs_and_state(const BitVec& inputs) {
    const auto pis = kernel_->input_slots();
    const std::span<const std::uint64_t> bits = inputs.words();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      values_[pis[i]] = bit_word(bits, i);
    }
    const auto dffs = kernel_->dff_slots();
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      values_[dffs[i]] = state_[i];
    }
  }

  std::shared_ptr<const CompiledKernel> kernel_;
  std::vector<Word> values_;  // per node slot, one lane per bit
  std::vector<Word> state_;   // per DFF
};

}  // namespace femu
