#include "netlist/bench_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/strings.h"

namespace femu {

namespace {

[[noreturn]] void fail(int line, std::string_view message) {
  throw ParseError(str_cat("bench parse error at line ", line, ": ", message));
}

struct Keyword {
  std::string_view name;
  CellType type;
};

constexpr Keyword kGateKeywords[] = {
    {"and", CellType::kAnd},       {"or", CellType::kOr},
    {"xor", CellType::kXor},       {"nand", CellType::kNand},
    {"nor", CellType::kNor},       {"xnor", CellType::kXnor},
    {"not", CellType::kNot},       {"buf", CellType::kBuf},
    {"buff", CellType::kBuf},      {"dff", CellType::kDff},
    {"mux", CellType::kMux},       {"const0", CellType::kConst0},
    {"gnd", CellType::kConst0},    {"const1", CellType::kConst1},
    {"vcc", CellType::kConst1},    {"vdd", CellType::kConst1},
};

/// Gate keyword to cell type, case-insensitively; nullopt when unknown.
std::optional<CellType> classify_gate(std::string_view head) {
  const std::string keyword = to_lower(head);
  for (const Keyword& k : kGateKeywords) {
    if (keyword == k.name) {
      return k.type;
    }
  }
  return std::nullopt;
}

void check_arity(CellType type, std::string_view head, std::size_t n,
                 int line) {
  const auto want = [&](std::size_t expected) {
    if (n != expected) {
      fail(line, str_cat(head, " takes ", expected, " operand(s), got ", n));
    }
  };
  switch (type) {
    case CellType::kDff:
    case CellType::kNot:
    case CellType::kBuf:
      want(1);
      break;
    case CellType::kMux:
      want(3);
      break;
    case CellType::kConst0:
    case CellType::kConst1:
      want(0);
      break;
    default:
      if (n < 2) {
        fail(line, str_cat(head, " needs at least 2 operands"));
      }
      break;
  }
}

/// Reduces `operands` in place with the binary gate `type` as a balanced
/// tree (keeps mapped LUT depth logarithmic for wide reductions).
NodeId reduce_tree(Circuit& circuit, CellType type,
                   std::vector<NodeId>& operands) {
  std::size_t n = operands.size();
  while (n > 1) {
    std::size_t m = 0;
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      operands[m++] = circuit.add_gate(type, operands[i], operands[i + 1]);
    }
    if (n % 2 == 1) {
      operands[m++] = operands[n - 1];
    }
    n = m;
  }
  return operands[0];
}

/// One pass over the text. Every signal name is interned once to a dense id
/// (views into the text, which must outlive the reader); each definition is
/// a flat record whose operands are ids in one shared vector. Resolution is
/// an iterative DFS over ids that emits nodes in dependency order.
class BenchReader {
 public:
  explicit BenchReader(std::string_view text) {
    ids_.reserve(text.size() / 16);
    const char* p = text.data();
    const char* const end = p + text.size();
    int line_no = 0;
    while (p < end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      const char* const stop = nl != nullptr ? nl : end;
      std::string_view line(p, static_cast<std::size_t>(stop - p));
      p = nl != nullptr ? nl + 1 : end;
      ++line_no;
      if (const std::size_t hash = line.find('#');
          hash != std::string_view::npos) {
        line = line.substr(0, hash);
      }
      line = trim(line);
      if (!line.empty()) {
        parse_line(line, line_no);
      }
    }
  }

  Circuit build(std::string circuit_name) {
    Circuit circuit(std::move(circuit_name));
    nodes_.assign(signals_.size(), kInvalidNode);
    on_stack_.assign(signals_.size(), 0);
    for (const std::uint32_t id : inputs_) {
      nodes_[id] = circuit.add_input(std::string(names_[id]));
    }
    // Create all DFFs up front so combinational logic can reference their Q
    // pins regardless of textual order.
    for (const std::uint32_t id : defs_) {
      if (signals_[id].type == CellType::kDff) {
        nodes_[id] = circuit.add_dff(std::string(names_[id]));
      }
    }
    for (const std::uint32_t id : defs_) {
      resolve(circuit, id, signals_[id].line);
    }
    for (const std::uint32_t id : defs_) {
      const Signal& dff = signals_[id];
      if (dff.type == CellType::kDff) {
        circuit.connect_dff(nodes_[id],
                            resolve(circuit, args_[dff.args_begin], dff.line));
      }
    }
    for (const auto& [id, line] : outputs_) {
      circuit.add_output(std::string(names_[id]), resolve(circuit, id, line));
    }
    circuit.validate();
    return circuit;
  }

 private:
  struct Signal {
    CellType type = CellType::kInput;
    int line = 0;  ///< defining line; 0 while the signal is undefined
    std::uint32_t args_begin = 0;
    std::uint32_t args_end = 0;
  };

  std::uint32_t intern(std::string_view name) {
    const auto next = static_cast<std::uint32_t>(names_.size());
    const auto [it, inserted] = ids_.try_emplace(name, next);
    if (inserted) {
      names_.push_back(name);
      signals_.emplace_back();
    }
    return it->second;
  }

  void define(std::uint32_t id, CellType type, int line) {
    Signal& signal = signals_[id];
    if (signal.line != 0) {
      fail(line, str_cat("signal '", names_[id], "' defined twice"));
    }
    signal.type = type;
    signal.line = line;
  }

  /// Splits "HEAD(arg1, arg2)" into head and tokens_; returns false when the
  /// text does not have call shape. `text` is trimmed and comment-free, so
  /// anything after the first ')' is an error, as is an empty operand.
  bool parse_call(std::string_view text, int line_no, std::string_view& head) {
    const std::size_t open = text.find('(');
    if (open == std::string_view::npos) {
      return false;
    }
    const std::size_t close = text.find(')', open + 1);
    if (close == std::string_view::npos) {
      return false;
    }
    if (close + 1 != text.size()) {
      fail(line_no, str_cat("unexpected text after ')': '",
                            text.substr(close + 1), "'"));
    }
    head = trim(text.substr(0, open));
    tokens_.clear();
    std::string_view inner = text.substr(open + 1, close - open - 1);
    if (trim(inner).empty()) {
      return true;
    }
    for (;;) {
      const std::size_t comma = inner.find(',');
      const std::string_view token = trim(inner.substr(0, comma));
      if (token.empty()) {
        fail(line_no, str_cat("empty operand in '", text, "'"));
      }
      tokens_.push_back(token);
      if (comma == std::string_view::npos) {
        return true;
      }
      inner.remove_prefix(comma + 1);
    }
  }

  void parse_line(std::string_view line, int line_no) {
    std::string_view head;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (!parse_call(line, line_no, head) || tokens_.size() != 1) {
        fail(line_no, str_cat("expected INPUT(x)/OUTPUT(x), got '", line, "'"));
      }
      const std::string keyword = to_lower(head);
      if (keyword == "input") {
        const std::uint32_t id = intern(tokens_[0]);
        define(id, CellType::kInput, line_no);
        inputs_.push_back(id);
      } else if (keyword == "output") {
        outputs_.emplace_back(intern(tokens_[0]), line_no);
      } else {
        fail(line_no, str_cat("unknown directive '", head, "'"));
      }
      return;
    }
    const std::string_view target = trim(line.substr(0, eq));
    if (target.empty()) {
      fail(line_no, "missing assignment target");
    }
    if (!parse_call(line.substr(eq + 1), line_no, head)) {
      fail(line_no, str_cat("malformed gate expression '", line, "'"));
    }
    const std::optional<CellType> type = classify_gate(head);
    if (!type) {
      fail(line_no, str_cat("unknown gate type '", head, "'"));
    }
    check_arity(*type, head, tokens_.size(), line_no);
    const std::uint32_t id = intern(target);
    define(id, *type, line_no);
    const auto begin = static_cast<std::uint32_t>(args_.size());
    for (const std::string_view token : tokens_) {
      args_.push_back(intern(token));
    }
    signals_[id].args_begin = begin;
    signals_[id].args_end = static_cast<std::uint32_t>(args_.size());
    defs_.push_back(id);
  }

  [[noreturn]] void undefined(std::uint32_t id, int line) const {
    fail(line, str_cat("signal '", names_[id], "' is used but never defined"));
  }

  /// Emits `root` (and, first, its unresolved operands) into the circuit.
  /// `line` names the reference in the error when `root` is undefined.
  NodeId resolve(Circuit& circuit, std::uint32_t root, int line) {
    if (nodes_[root] != kInvalidNode) {
      return nodes_[root];
    }
    if (signals_[root].line == 0) {
      undefined(root, line);
    }
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const std::uint32_t current = stack_.back();
      if (nodes_[current] != kInvalidNode) {
        stack_.pop_back();
        on_stack_[current] = 0;
        continue;
      }
      const Signal& def = signals_[current];
      on_stack_[current] = 1;
      bool operands_ready = true;
      for (std::uint32_t k = def.args_begin; k < def.args_end; ++k) {
        const std::uint32_t arg = args_[k];
        if (nodes_[arg] != kInvalidNode) {
          continue;
        }
        if (signals_[arg].line == 0) {
          undefined(arg, def.line);
        }
        if (on_stack_[arg] != 0) {
          throw NetlistError(str_cat("bench: combinational loop through '",
                                     names_[arg], "' (line ", def.line, ")"));
        }
        stack_.push_back(arg);
        operands_ready = false;
      }
      if (!operands_ready) {
        continue;
      }
      nodes_[current] = emit(circuit, current);
      stack_.pop_back();
      on_stack_[current] = 0;
    }
    return nodes_[root];
  }

  NodeId emit(Circuit& circuit, std::uint32_t id) {
    const Signal& def = signals_[id];
    operands_.clear();
    for (std::uint32_t k = def.args_begin; k < def.args_end; ++k) {
      operands_.push_back(nodes_[args_[k]]);
    }
    NodeId node = kInvalidNode;
    switch (def.type) {
      case CellType::kNot:
      case CellType::kBuf:
        node = circuit.add_unary(def.type, operands_[0]);
        break;
      case CellType::kMux:
        node = circuit.add_mux(operands_[0], operands_[1], operands_[2]);
        break;
      case CellType::kConst0:
      case CellType::kConst1:
        node = circuit.add_buf(
            circuit.add_const(def.type == CellType::kConst1));
        break;
      case CellType::kInput:
      case CellType::kDff:
        FEMU_CHECK(false, "bench: inputs and DFFs are created before emit");
        break;
      default:
        if (operands_.size() == 2) {
          node = circuit.add_gate(def.type, operands_[0], operands_[1]);
        } else {
          // n-ary: reduce with the positive gate, invert when needed.
          const bool inverted = def.type == CellType::kNand ||
                                def.type == CellType::kNor ||
                                def.type == CellType::kXnor;
          const CellType base =
              (def.type == CellType::kAnd || def.type == CellType::kNand)
                  ? CellType::kAnd
              : (def.type == CellType::kOr || def.type == CellType::kNor)
                  ? CellType::kOr
                  : CellType::kXor;
          node = reduce_tree(circuit, base, operands_);
          if (inverted) {
            node = circuit.add_not(node);
          }
        }
        break;
    }
    circuit.set_name(node, std::string(names_[id]));
    return node;
  }

  // Parse state: the intern table and one record per signal id.
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> names_;
  std::vector<Signal> signals_;
  std::vector<std::uint32_t> args_;  ///< operand ids of every definition
  std::vector<std::uint32_t> inputs_;
  std::vector<std::pair<std::uint32_t, int>> outputs_;  ///< id, line
  std::vector<std::uint32_t> defs_;  ///< gate and DFF definitions, text order
  std::vector<std::string_view> tokens_;

  // Build state, indexed by signal id.
  std::vector<NodeId> nodes_;
  std::vector<std::uint8_t> on_stack_;
  std::vector<std::uint32_t> stack_;
  std::vector<NodeId> operands_;
};

}  // namespace

Circuit read_bench(std::istream& in, std::string circuit_name) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return read_bench_string(text, std::move(circuit_name));
}

Circuit read_bench_string(std::string_view text, std::string circuit_name) {
  return BenchReader(text).build(std::move(circuit_name));
}

Circuit load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError(str_cat("cannot open bench file '", path, "'"));
  }
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return read_bench(in, name);
}

namespace {

/// Stable, collision-free textual names for every node the writer mentions.
class WriterNames {
 public:
  explicit WriterNames(const Circuit& circuit) : circuit_(circuit) {
    for (NodeId id = 0; id < circuit.node_count(); ++id) {
      std::string base = circuit.node_name(id);
      while (used_.count(base) != 0) {
        base += "_w";
      }
      used_.insert(base);
      names_.push_back(std::move(base));
    }
  }

  [[nodiscard]] const std::string& of(NodeId id) const { return names_[id]; }

  [[nodiscard]] std::string fresh(std::string base) {
    while (used_.count(base) != 0) {
      base += "_w";
    }
    used_.insert(base);
    return base;
  }

 private:
  const Circuit& circuit_;
  std::vector<std::string> names_;
  std::unordered_set<std::string> used_;
};

}  // namespace

void write_bench(const Circuit& circuit, std::ostream& out) {
  WriterNames names(circuit);
  out << "# " << circuit.name() << " — written by femu\n";
  out << "# " << circuit.num_inputs() << " inputs, " << circuit.num_outputs()
      << " outputs, " << circuit.num_dffs() << " flip-flops, "
      << circuit.num_gates() << " gates\n";
  for (const NodeId pi : circuit.inputs()) {
    out << "INPUT(" << names.of(pi) << ")\n";
  }

  // Output ports may carry names that differ from their driver node; emit an
  // alias BUFF in that case so OUTPUT() always references a defined signal.
  std::vector<std::pair<std::string, std::string>> aliases;  // name -> driver
  std::vector<std::string> output_names;
  for (const auto& port : circuit.outputs()) {
    const std::string& driver_name = names.of(port.driver);
    if (driver_name == port.name) {
      output_names.push_back(driver_name);
    } else {
      std::string alias = names.fresh(port.name);
      aliases.emplace_back(alias, driver_name);
      output_names.push_back(std::move(alias));
    }
  }
  for (const auto& name : output_names) {
    out << "OUTPUT(" << name << ")\n";
  }
  out << "\n";

  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const CellType type = circuit.type(id);
    const auto fanins = circuit.fanins(id);
    switch (type) {
      case CellType::kInput:
        break;
      case CellType::kConst0:
        out << names.of(id) << " = CONST0()\n";
        break;
      case CellType::kConst1:
        out << names.of(id) << " = CONST1()\n";
        break;
      case CellType::kDff:
        out << names.of(id) << " = DFF(" << names.of(fanins[0]) << ")\n";
        break;
      case CellType::kBuf:
        out << names.of(id) << " = BUFF(" << names.of(fanins[0]) << ")\n";
        break;
      case CellType::kNot:
        out << names.of(id) << " = NOT(" << names.of(fanins[0]) << ")\n";
        break;
      case CellType::kMux:
        out << names.of(id) << " = MUX(" << names.of(fanins[0]) << ", "
            << names.of(fanins[1]) << ", " << names.of(fanins[2]) << ")\n";
        break;
      default:
        out << names.of(id) << " = " << cell_name(type) << "("
            << names.of(fanins[0]) << ", " << names.of(fanins[1]) << ")\n";
        break;
    }
  }
  for (const auto& [alias, driver] : aliases) {
    out << alias << " = BUFF(" << driver << ")\n";
  }
}

std::string write_bench_string(const Circuit& circuit) {
  std::ostringstream out;
  write_bench(circuit, out);
  return out.str();
}

void save_bench_file(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw Error(str_cat("cannot open '", path, "' for writing"));
  }
  write_bench(circuit, out);
}

}  // namespace femu
