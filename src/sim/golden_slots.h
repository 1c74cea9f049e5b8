#pragma once

#include <span>
#include <vector>

#include "common/bitvec.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"

namespace femu {

/// Golden value of **every kernel slot** at every cycle — the fault-free
/// machine's full combinational settle, 1 bit per slot per cycle.
///
/// A diagnostic view of the golden run: slot index == node id, so
/// `at(t).get(slot)` is the value node `slot` settled to during cycle t
/// (inputs hold vector t, DFF Q slots hold the start-of-cycle-t state). The
/// campaign engine itself needs only the output/state GoldenTrace.
///
/// Size: num_slots x num_cycles bits — for b14 x 160 vectors about 47 KiB.
struct GoldenSlotTrace {
  std::size_t num_slots = 0;
  std::vector<BitVec> cycles;

  [[nodiscard]] std::size_t num_cycles() const noexcept {
    return cycles.size();
  }

  [[nodiscard]] const BitVec& at(std::size_t t) const { return cycles[t]; }
};

/// Runs the fault-free machine over `vectors` on the compiled kernel and
/// snapshots every slot after each combinational settle.
[[nodiscard]] GoldenSlotTrace capture_golden_slots(
    const CompiledKernel& kernel, std::span<const BitVec> vectors);

/// Both golden views of one fault-free run: the output/state trace the
/// classifiers compare against, and (optionally) the full per-slot trace.
struct GoldenCapture {
  GoldenTrace trace;
  GoldenSlotTrace slots;
};

/// Captures the golden output/state trace and (when `want_slots`) the golden
/// slot trace in ONE walk of the fault-free machine, replacing the separate
/// `capture_golden` (interpreted re-simulation) + `capture_golden_slots`
/// passes the engine constructor used to run back to back.
///
/// Bit-identical to both separate captures by construction: outputs(t) and
/// next-state(t) are read from the same settled slot values the snapshot
/// packs. With `build_threads > 1` a serial state-only walk records the
/// per-cycle start states first, then disjoint cycle ranges re-settle in
/// parallel, each seeded from the recorded state — every cycle's snapshot is
/// a pure function of (state, vector), so the result is bit-identical to the
/// serial walk for any thread count. 0 = hardware concurrency.
[[nodiscard]] GoldenCapture capture_golden_unified(
    const CompiledKernel& kernel, std::span<const BitVec> vectors,
    unsigned build_threads = 1, bool want_slots = true);

}  // namespace femu
