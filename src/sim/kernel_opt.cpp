#include "sim/kernel_opt.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace femu {

/// Friend of CompiledKernel: rewrites a cloned kernel's program_,
/// const1_slots_ and opt_stats_ in place. One forward walk interleaves
/// absorption and folding over a per-slot value lattice; a backward sweep
/// eliminates dead logic. See kernel_opt.h for the pass pipeline and the
/// preserve contract.
class KernelOptimizer {
 public:
  KernelOptimizer(CompiledKernel& kernel, std::span<const NodeId> preserve)
      : k_(kernel) {
    preserve_.assign(preserve.begin(), preserve.end());
    std::sort(preserve_.begin(), preserve_.end());
    preserve_.erase(std::unique(preserve_.begin(), preserve_.end()),
                    preserve_.end());
  }

  void run();

 private:
  using Instr = CompiledKernel::Instr;

  static constexpr std::uint32_t kNoInstr = 0xffffffffU;

  /// Per-slot value lattice. A slot is kOpaque when its value must be read
  /// from the slot itself (sources and materialized destinations), a
  /// constant when folding proved it, or an alias of an opaque root with a
  /// complement parity (absorbed BUF/NOT chains). Alias roots are always
  /// opaque: the program is topological and a slot's lattice entry is final
  /// before any consumer resolves it.
  enum class Kind : std::uint8_t { kOpaque, kConst0, kConst1, kAlias };

  struct Lattice {
    Kind kind = Kind::kOpaque;
    std::uint32_t root = 0;
    bool parity = false;
  };

  /// A resolved operand: a constant, or a reference to an opaque slot with
  /// an accumulated complement parity (kind == kOpaque).
  struct Operand {
    Kind kind = Kind::kOpaque;
    std::uint32_t slot = 0;
    bool parity = false;
  };

  /// What an instruction simplifies to.
  struct Result {
    enum class Tag : std::uint8_t { kConst, kRef, kInstr };
    Tag tag = Tag::kInstr;
    bool value = false;  // kConst
    Operand ref;         // kRef
    CellType op = CellType::kBuf;  // kInstr — operands all refs, never const
    Operand oa, ob, oc;
  };

  /// The fate of one program instruction, decided by the forward pass and
  /// possibly revised by force-keeping (kDelete* -> kEmitOriginal) or the
  /// dead sweep (kEmit* -> kDeleteDead).
  struct Plan {
    enum class Action : std::uint8_t {
      kEmit,          // rewritten form below
      kEmitOriginal,  // original instruction, verbatim (force-kept)
      kDeleteAlias,   // absorbed into consumers' neg flags
      kDeleteConst,   // folded to a constant
      kDeleteDead,    // unreachable from any root
    };
    Action action = Action::kEmit;
    Instr rewritten;
  };

  static Operand make_const(bool v) {
    return {v ? Kind::kConst1 : Kind::kConst0, 0, false};
  }
  static bool is_const(const Operand& o) { return o.kind != Kind::kOpaque; }
  static bool const_val(const Operand& o) { return o.kind == Kind::kConst1; }
  static Operand negate(Operand o) {
    if (o.kind == Kind::kOpaque) {
      o.parity = !o.parity;
      return o;
    }
    return make_const(o.kind == Kind::kConst0);
  }

  static Result const_result(bool v) {
    Result r;
    r.tag = Result::Tag::kConst;
    r.value = v;
    return r;
  }
  static Result ref_result(Operand o) {
    if (is_const(o)) {
      return const_result(const_val(o));
    }
    Result r;
    r.tag = Result::Tag::kRef;
    r.ref = o;
    return r;
  }
  static Result instr2(CellType op, Operand x, Operand y) {
    Result r;
    r.tag = Result::Tag::kInstr;
    r.op = op;
    r.oa = x;
    r.ob = y;
    r.oc = x;
    return r;
  }

  /// Complements a result. Only called on results that can absorb the
  /// negation: constants, refs, and AND/OR/XOR-family instructions (the
  /// complemented opcode exists); never on kBuf/kMux instruction results.
  static Result negate_result(Result r) {
    switch (r.tag) {
      case Result::Tag::kConst:
        r.value = !r.value;
        return r;
      case Result::Tag::kRef:
        r.ref = negate(r.ref);
        return r;
      case Result::Tag::kInstr:
        switch (r.op) {
          case CellType::kAnd: r.op = CellType::kNand; return r;
          case CellType::kNand: r.op = CellType::kAnd; return r;
          case CellType::kOr: r.op = CellType::kNor; return r;
          case CellType::kNor: r.op = CellType::kOr; return r;
          case CellType::kXor: r.op = CellType::kXnor; return r;
          case CellType::kXnor: r.op = CellType::kXor; return r;
          default:
            FEMU_CHECK(false, "cannot complement op ", cell_name(r.op));
        }
    }
    return r;
  }

  static Result simplify_and(Operand x, Operand y) {
    if ((is_const(x) && !const_val(x)) || (is_const(y) && !const_val(y))) {
      return const_result(false);
    }
    if (is_const(x)) return ref_result(y);  // x == 1
    if (is_const(y)) return ref_result(x);  // y == 1
    if (x.slot == y.slot) {
      return x.parity == y.parity ? ref_result(x) : const_result(false);
    }
    return instr2(CellType::kAnd, x, y);
  }

  static Result simplify_or(Operand x, Operand y) {
    if ((is_const(x) && const_val(x)) || (is_const(y) && const_val(y))) {
      return const_result(true);
    }
    if (is_const(x)) return ref_result(y);  // x == 0
    if (is_const(y)) return ref_result(x);  // y == 0
    if (x.slot == y.slot) {
      return x.parity == y.parity ? ref_result(x) : const_result(true);
    }
    return instr2(CellType::kOr, x, y);
  }

  /// XOR with an extra output complement: operand parities and constants
  /// all hoist into the output parity ((x^px)^(y^py) == (x^y)^(px^py)), so
  /// an emitted XOR-family instruction never carries neg flags — the
  /// parity picks kXor vs kXnor instead.
  static Result simplify_xor(Operand x, Operand y, bool out_neg) {
    bool p = out_neg;
    if (is_const(x) && is_const(y)) {
      return const_result(const_val(x) ^ const_val(y) ^ p);
    }
    if (is_const(x) || is_const(y)) {
      const Operand& ref = is_const(x) ? y : x;
      p ^= const_val(is_const(x) ? x : y) ^ ref.parity;
      return ref_result(Operand{Kind::kOpaque, ref.slot, p});
    }
    p ^= x.parity ^ y.parity;
    if (x.slot == y.slot) {
      return const_result(p);
    }
    x.parity = false;
    y.parity = false;
    return instr2(p ? CellType::kXnor : CellType::kXor, x, y);
  }

  /// MUX(sel=a, d0=b, d1=c) — value = sel ? d1 : d0.
  static Result simplify_mux(Operand a, Operand b, Operand c) {
    if (is_const(a)) {
      return ref_result(const_val(a) ? c : b);
    }
    if (is_const(b) && is_const(c)) {
      if (const_val(b) == const_val(c)) return const_result(const_val(b));
      return ref_result(const_val(c) ? a : negate(a));
    }
    if (!is_const(b) && !is_const(c) && b.slot == c.slot) {
      if (b.parity == c.parity) return ref_result(b);
      return simplify_xor(a, b, false);  // d1 == ~d0: sel ^ d0
    }
    if (is_const(b)) {
      return const_val(b) ? simplify_or(negate(a), c)   // sel ? d1 : 1
                          : simplify_and(a, c);         // sel ? d1 : 0
    }
    if (is_const(c)) {
      return const_val(c) ? simplify_or(a, b)           // sel ? 1 : d0
                          : simplify_and(negate(a), b); // sel ? 0 : d0
    }
    Result r;
    r.tag = Result::Tag::kInstr;
    r.op = CellType::kMux;
    r.oa = a;
    r.ob = b;
    r.oc = c;
    return r;
  }

  static Result simplify(CellType op, const Operand& a, const Operand& b,
                         const Operand& c) {
    switch (op) {
      case CellType::kBuf: return ref_result(a);
      case CellType::kNot: return ref_result(negate(a));
      case CellType::kAnd: return simplify_and(a, b);
      case CellType::kNand: return negate_result(simplify_and(a, b));
      case CellType::kOr: return simplify_or(a, b);
      case CellType::kNor: return negate_result(simplify_or(a, b));
      case CellType::kXor: return simplify_xor(a, b, false);
      case CellType::kXnor: return simplify_xor(a, b, true);
      case CellType::kMux: return simplify_mux(a, b, c);
      default:
        FEMU_CHECK(false, "op ", cell_name(op), " has no simplification");
    }
    return {};
  }

  [[nodiscard]] Operand resolve(std::uint32_t s) const {
    const Lattice& lv = lattice_[s];
    switch (lv.kind) {
      case Kind::kOpaque: return {Kind::kOpaque, s, false};
      case Kind::kConst0: return make_const(false);
      case Kind::kConst1: return make_const(true);
      case Kind::kAlias: return {Kind::kOpaque, lv.root, lv.parity};
    }
    return {Kind::kOpaque, s, false};
  }

  /// Lowers a simplified instruction back to Instr form, keeping the
  /// lowering's unused-operand convention (b == a for unary, c == a for
  /// binary) so no instruction ever reads a deleted slot.
  [[nodiscard]] Instr encode(std::uint32_t dest, const Result& res) const {
    Instr out;
    out.dest = dest;
    out.op = res.op;
    out.a = res.oa.slot;
    std::uint8_t neg = res.oa.parity ? 1 : 0;
    out.b = res.ob.slot;
    neg |= res.ob.parity ? 2 : 0;
    if (res.op == CellType::kMux) {
      out.c = res.oc.slot;
      neg |= res.oc.parity ? 4 : 0;
    } else {
      out.c = out.a;
    }
    out.neg = neg;
    return out;
  }

  /// Re-materializes the producer chain of a slot in original form — the
  /// fallback for a materialized instruction whose operands all folded to
  /// constants: its original fanin tree (constant-valued by definition)
  /// comes back so the operand slots hold exact values. Terminates at
  /// source slots (const cells, inputs, DFF Qs), which are never produced
  /// by instructions.
  void force_keep(std::uint32_t slot) {
    if (instr_of_slot_[slot] != kNoInstr) {
      keep_work_.push_back(slot);
    }
  }
  void drain_force_keep(std::vector<Plan>& plans) {
    while (!keep_work_.empty()) {
      const std::uint32_t s = keep_work_.back();
      keep_work_.pop_back();
      Plan& p = plans[instr_of_slot_[s]];
      if (p.action == Plan::Action::kEmit ||
          p.action == Plan::Action::kEmitOriginal) {
        continue;  // already computes its exact value in-stream
      }
      p.action = Plan::Action::kEmitOriginal;
      const Instr& in = k_.program_[instr_of_slot_[s]];
      force_keep(in.a);
      force_keep(in.b);
      force_keep(in.c);
    }
  }

  CompiledKernel& k_;
  std::vector<NodeId> preserve_;  // sorted, deduped
  std::vector<Lattice> lattice_;
  std::vector<std::uint8_t> materialized_;
  std::vector<std::uint32_t> instr_of_slot_;
  std::vector<std::uint32_t> keep_work_;
};

void KernelOptimizer::run() {
  const std::size_t n = k_.num_slots_;
  const Circuit& circuit = *k_.circuit_;
  std::vector<Instr>& program = k_.program_;

  lattice_.assign(n, Lattice{});
  for (NodeId id = 0; id < n; ++id) {
    const CellType t = circuit.type(id);
    if (t == CellType::kConst0) {
      lattice_[id] = {Kind::kConst0, 0, false};
    } else if (t == CellType::kConst1) {
      lattice_[id] = {Kind::kConst1, 0, false};
    }
  }

  materialized_.assign(n, 0);
  for (const std::uint32_t s : k_.output_slots_) materialized_[s] = 1;
  for (const std::uint32_t s : k_.dff_d_slots_) materialized_[s] = 1;
  for (const NodeId s : preserve_) {
    FEMU_CHECK(s < n, "preserve node ", s, " out of range (", n, " slots)");
    materialized_[s] = 1;
  }

  instr_of_slot_.assign(n, kNoInstr);
  for (std::size_t i = 0; i < program.size(); ++i) {
    instr_of_slot_[program[i].dest] = static_cast<std::uint32_t>(i);
  }

  CompiledKernel::OptStats stats;
  stats.raw_instrs = program.size();
  for (const NodeId s : preserve_) {
    if (instr_of_slot_[s] != kNoInstr) ++stats.preserved;
  }

  // Forward pass: absorption + folding. Non-materialized destinations may
  // dissolve into the lattice (consumers rewrite through them);
  // materialized destinations always keep an instruction and stay opaque,
  // so every consumer reads the slot an overlay may have rewritten.
  std::vector<Plan> plans(program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instr& in = program[i];
    const Operand ra = resolve(in.a);
    const Operand rb = resolve(in.b);
    const Operand rc = resolve(in.c);
    const Result res = simplify(in.op, ra, rb, rc);
    Plan& plan = plans[i];
    if (materialized_[in.dest] == 0) {
      switch (res.tag) {
        case Result::Tag::kConst:
          lattice_[in.dest] = {res.value ? Kind::kConst1 : Kind::kConst0, 0,
                               false};
          plan.action = Plan::Action::kDeleteConst;
          break;
        case Result::Tag::kRef:
          lattice_[in.dest] = {Kind::kAlias, res.ref.slot, res.ref.parity};
          plan.action = Plan::Action::kDeleteAlias;
          break;
        case Result::Tag::kInstr:
          plan.action = Plan::Action::kEmit;
          plan.rewritten = encode(in.dest, res);
          break;
      }
      continue;
    }
    plan.action = Plan::Action::kEmit;
    switch (res.tag) {
      case Result::Tag::kConst: {
        // Constant-valued but must stay in-stream (overlayable / read by
        // the engine): emit XOR(x,x) / XNOR(x,x) of any live operand, or
        // re-materialize the (constant) original fanin chain when every
        // operand folded away.
        const Operand* live = nullptr;
        if (!is_const(ra)) {
          live = &ra;
        } else if (!is_const(rb)) {
          live = &rb;
        } else if (!is_const(rc)) {
          live = &rc;
        }
        if (live != nullptr) {
          Instr out;
          out.dest = in.dest;
          out.a = out.b = out.c = live->slot;
          out.op = res.value ? CellType::kXnor : CellType::kXor;
          plan.rewritten = out;
        } else {
          plan.action = Plan::Action::kEmitOriginal;
          force_keep(in.a);
          force_keep(in.b);
          force_keep(in.c);
        }
        break;
      }
      case Result::Tag::kRef: {
        Instr out;
        out.dest = in.dest;
        out.a = out.b = out.c = res.ref.slot;
        out.op = CellType::kBuf;
        out.neg = res.ref.parity ? 1 : 0;
        plan.rewritten = out;
        break;
      }
      case Result::Tag::kInstr:
        plan.rewritten = encode(in.dest, res);
        break;
    }
  }
  drain_force_keep(plans);

  // Backward dead-logic sweep from the observable roots. Reverse program
  // order is reverse-topological over kept instructions, so a consumer's
  // liveness is settled before its producers are visited.
  std::vector<std::uint8_t> live(n, 0);
  for (const std::uint32_t s : k_.output_slots_) live[s] = 1;
  for (const std::uint32_t s : k_.dff_d_slots_) live[s] = 1;
  for (const NodeId s : preserve_) live[s] = 1;
  for (std::size_t i = program.size(); i-- > 0;) {
    Plan& p = plans[i];
    if (p.action == Plan::Action::kDeleteAlias ||
        p.action == Plan::Action::kDeleteConst) {
      continue;
    }
    const Instr& e =
        p.action == Plan::Action::kEmit ? p.rewritten : program[i];
    if (live[e.dest] == 0) {
      p.action = Plan::Action::kDeleteDead;
      continue;
    }
    live[e.a] = 1;
    live[e.b] = 1;
    live[e.c] = 1;
  }

  // Rebuild. Destinations keep their original relative order (deletion and
  // in-place rewriting only), so the program stays dest-ascending — the
  // overlay-merge invariant holds unchanged.
  std::vector<Instr> out;
  out.reserve(program.size());
  std::vector<std::uint32_t> folded_const1;
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Plan& p = plans[i];
    switch (p.action) {
      case Plan::Action::kEmit:
        out.push_back(p.rewritten);
        break;
      case Plan::Action::kEmitOriginal:
        out.push_back(program[i]);
        break;
      case Plan::Action::kDeleteAlias:
        ++stats.absorbed;
        break;
      case Plan::Action::kDeleteConst:
        ++stats.folded;
        if (lattice_[program[i].dest].kind == Kind::kConst1) {
          folded_const1.push_back(program[i].dest);
        }
        break;
      case Plan::Action::kDeleteDead:
        ++stats.dead;
        break;
    }
  }
  stats.opt_instrs = out.size();
  program = std::move(out);

  // Slots folded to constant-1 become init()-written constants, so the
  // full slot array still holds their exact value (constant-0 folds keep
  // the zeroed default). No emitted instruction reads them — consumers
  // resolved through the lattice — but diagnostics stay coherent.
  k_.const1_slots_.insert(k_.const1_slots_.end(), folded_const1.begin(),
                          folded_const1.end());
  std::sort(k_.const1_slots_.begin(), k_.const1_slots_.end());

  k_.opt_stats_ = stats;
}

std::shared_ptr<const CompiledKernel> optimize_kernel(
    const std::shared_ptr<const CompiledKernel>& raw,
    std::span<const NodeId> preserve) {
  FEMU_CHECK(raw != nullptr, "optimize_kernel: null kernel");
  auto opt = std::make_shared<CompiledKernel>(*raw);
  KernelOptimizer optimizer(*opt, preserve);
  optimizer.run();
  return opt;
}

}  // namespace femu
