#pragma once

#include <memory>
#include <span>

#include "netlist/circuit.h"
#include "sim/compiled_kernel.h"

namespace femu {

/// Optimizer pass pipeline over the CompiledKernel IR.
///
/// Returns a new kernel computing the same function as `raw` on every slot
/// the campaign engine observes, with a shorter instruction stream. The
/// engine is memory-bound (~87 B/instr at 512 lanes), so every retired
/// instruction converts directly into faults/s. Three passes run in one
/// forward walk plus one backward sweep:
///
///   1. **Inverter/buffer absorption** — a BUF/NOT whose destination is not
///      materialized (see below) is deleted; consumers read the chain's
///      root slot directly with the accumulated complement parity packed
///      into `Instr::neg` (bit 0/1/2 → ~a/~b/~c, applied branch-free by
///      every eval path).
///   2. **Constant folding** — `init()`-time constants (kConst0/kConst1
///      cells) propagate forward through a per-slot lattice
///      {opaque, const0, const1, alias±}; gates with constant or duplicate
///      fanins simplify (AND(x,0)→0, XOR(x,1)→~x, MUX with constant
///      select/data → AND/OR/BUF, ...) down to constants or absorbed
///      buffers. Slots folded to constant-1 join `const1_slots_`, so the
///      full-program slot array still holds their exact value after init.
///   3. **Dead-logic elimination** — a backward liveness sweep from the
///      roots (PO drivers, DFF D drivers, preserve set) drops every
///      instruction whose destination no longer reaches an observable slot.
///
/// **Preserve contract.** Overlay fault models (SET, stuck-at) inject at
/// gate-output slots by rewriting the value an instruction just stored;
/// an injection site therefore needs (a) an instruction with that dest in
/// the stream for the ascending-dest overlay merge to hit, and (b) every
/// consumer actually reading the dest slot so the injected value
/// propagates. `preserve` is the set of node ids a campaign may inject at:
/// preserved destinations — along with PO drivers and DFF D drivers, whose
/// slots the engine reads for mismatch checks — are *materialized*: they
/// always keep an instruction (rewritten in place, never re-ordered) and
/// are never aliased or folded away from their consumers. SEU/MBU inject
/// into flip-flop state words, not gate slots, so they pass an empty set
/// and optimize maximally (the campaign engine's FF-model kernel). The
/// engine runs SET/stuck-at campaigns on the raw kernel; a caller
/// optimizing for overlay injection passes its site set. A materialized
/// instruction whose value proves constant is re-emitted as
/// `XOR(x,x)`/`XNOR(x,x)` of a live operand (or, when every operand
/// folded, its original fanin chain is re-materialized), so its slot is
/// still computed in-stream and overlayable.
///
/// Destination order is untouched (instructions are deleted or rewritten
/// in place), so the program stays dest-ascending — the overlay-merge
/// invariant holds unchanged. Every emitted operand refers to a
/// materialized destination or a source slot. Classifications are
/// bit-identical to the raw kernel for any campaign whose injection sites
/// are covered by `preserve`.
///
/// Instruction-reduction accounting lands in the clone's `opt_stats()`.
/// `preserve` may be unsorted and contain duplicates or source-slot ids
/// (ids without an instruction are kept for root marking but nothing needs
/// materializing). The returned kernel shares the raw kernel's Circuit
/// reference; `raw` itself is never modified.
[[nodiscard]] std::shared_ptr<const CompiledKernel> optimize_kernel(
    const std::shared_ptr<const CompiledKernel>& raw,
    std::span<const NodeId> preserve);

}  // namespace femu
