#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell.h"

namespace femu {

/// Handle to a node inside a Circuit. Node ids are dense and allocation-order;
/// because construction may only reference already-existing nodes, id order is
/// a valid combinational evaluation order (DFF D-pins are the one sanctioned
/// back-edge and are connected in a second phase via connect_dff()).
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Gate-level sequential circuit.
///
/// The IR is a DAG of primitive cells (see CellType) plus named primary
/// outputs that reference driver nodes. Flip-flops all share one implicit
/// clock and reset to 0, matching the paper's emulation model where the whole
/// design-under-test is clocked by the emulation controller.
///
/// State ordering: the i-th element of dffs() is "FF i" everywhere in the
/// library — fault sites, state BitVecs and scan chains all use this order.
class Circuit {
 public:
  explicit Circuit(std::string name);

  // ---- construction ------------------------------------------------------

  /// Adds a primary input. Input order is the stimulus bit order.
  NodeId add_input(std::string name);

  /// Adds (or reuses) the constant-0 / constant-1 node.
  NodeId add_const(bool value);

  /// Adds a 2-input gate; `type` must be one of the 2-input cell types.
  NodeId add_gate(CellType type, NodeId a, NodeId b);

  /// Adds a unary cell (kBuf or kNot).
  NodeId add_unary(CellType type, NodeId a);

  NodeId add_not(NodeId a) { return add_unary(CellType::kNot, a); }
  NodeId add_buf(NodeId a) { return add_unary(CellType::kBuf, a); }
  NodeId add_and(NodeId a, NodeId b) { return add_gate(CellType::kAnd, a, b); }
  NodeId add_or(NodeId a, NodeId b) { return add_gate(CellType::kOr, a, b); }
  NodeId add_xor(NodeId a, NodeId b) { return add_gate(CellType::kXor, a, b); }

  /// Adds a 2:1 mux: output = sel ? d1 : d0.
  NodeId add_mux(NodeId sel, NodeId d0, NodeId d1);

  /// Adds a D flip-flop with an unconnected D pin (connect with connect_dff).
  /// DFFs reset to 0 at cycle 0.
  NodeId add_dff(std::string name);

  /// Connects the D pin of `dff`. May reference any node (feedback allowed).
  void connect_dff(NodeId dff, NodeId d);

  /// Declares a named primary output driven by `driver`.
  void add_output(std::string name, NodeId driver);

  /// Assigns a name to a node (must be unique within the circuit).
  void set_name(NodeId id, std::string name);

  // ---- queries ------------------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void rename(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  [[nodiscard]] CellType type(NodeId id) const;

  /// Fanins of `id` (arity depends on the cell type).
  [[nodiscard]] std::span<const NodeId> fanins(NodeId id) const;

  /// D-pin driver of a DFF (kInvalidNode when not yet connected).
  [[nodiscard]] NodeId dff_d(NodeId dff) const;

  /// D-pin drivers of all flip-flops in dffs() order. Simulator clock-edge
  /// loops and the compiled-kernel lowering snapshot this once instead of
  /// making a checked dff_d() call per flip-flop per cycle. Throws when any
  /// DFF is still unconnected.
  [[nodiscard]] std::vector<NodeId> dff_drivers() const;

  /// Primary inputs in declaration order (stimulus bit order).
  [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept {
    return inputs_;
  }

  /// Flip-flops in declaration order (state/fault-site bit order).
  [[nodiscard]] const std::vector<NodeId>& dffs() const noexcept {
    return dffs_;
  }

  struct OutputPort {
    std::string name;
    NodeId driver = kInvalidNode;
  };

  /// Primary outputs in declaration order (response bit order).
  [[nodiscard]] const std::vector<OutputPort>& outputs() const noexcept {
    return outputs_;
  }

  [[nodiscard]] std::size_t num_inputs() const noexcept { return inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return outputs_.size(); }
  [[nodiscard]] std::size_t num_dffs() const noexcept { return dffs_.size(); }

  /// Number of combinational gates (excludes constants, inputs and DFFs).
  [[nodiscard]] std::size_t num_gates() const noexcept { return gate_count_; }

  /// Name of a node; unnamed nodes render as "n<id>".
  [[nodiscard]] std::string node_name(NodeId id) const;

  /// Looks up a node by its assigned name.
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;

  /// Index of `dff` in dffs() order; throws when `dff` is not a flip-flop.
  [[nodiscard]] std::size_t dff_index(NodeId dff) const;

  /// Validates structural well-formedness: every DFF D-pin connected, every
  /// output driver valid. Throws NetlistError with a diagnostic otherwise.
  void validate() const;

 private:
  NodeId add_node(CellType type, NodeId a, NodeId b, NodeId c);
  void check_id(NodeId id, const char* what) const;

  struct Node {
    CellType type;
    std::array<NodeId, 3> fanin{kInvalidNode, kInvalidNode, kInvalidNode};
  };

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> dffs_;
  std::vector<OutputPort> outputs_;
  /// Transparent hash, so find(string_view) looks up without a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> node_names_;  ///< by NodeId; empty = unnamed
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>>
      name_to_id_;
  /// DFF index by NodeId; ~0u (or past the end) for other nodes.
  std::vector<std::uint32_t> dff_order_;
  std::size_t gate_count_ = 0;
  NodeId const0_ = kInvalidNode;
  NodeId const1_ = kInvalidNode;
};

}  // namespace femu
