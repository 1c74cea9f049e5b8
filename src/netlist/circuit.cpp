#include "netlist/circuit.h"

#include "common/error.h"

namespace femu {

namespace {
constexpr std::uint32_t kNotDff = 0xffffffffu;
}  // namespace

Circuit::Circuit(std::string name) : name_(std::move(name)) {}

NodeId Circuit::add_node(CellType type, NodeId a, NodeId b, NodeId c) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.type = type;
  node.fanin = {a, b, c};
  nodes_.push_back(node);
  node_names_.emplace_back();
  if (is_comb_cell(type)) {
    ++gate_count_;
  }
  return id;
}

void Circuit::check_id(NodeId id, const char* what) const {
  FEMU_CHECK(id < nodes_.size(), "invalid ", what, " node id ", id,
             " in circuit '", name_, "' (", nodes_.size(), " nodes)");
}

NodeId Circuit::add_input(std::string name) {
  const NodeId id = add_node(CellType::kInput, kInvalidNode, kInvalidNode,
                             kInvalidNode);
  inputs_.push_back(id);
  set_name(id, std::move(name));
  return id;
}

NodeId Circuit::add_const(bool value) {
  NodeId& cached = value ? const1_ : const0_;
  if (cached == kInvalidNode) {
    cached = add_node(value ? CellType::kConst1 : CellType::kConst0,
                      kInvalidNode, kInvalidNode, kInvalidNode);
  }
  return cached;
}

NodeId Circuit::add_gate(CellType type, NodeId a, NodeId b) {
  FEMU_CHECK(cell_arity(type) == 2, "add_gate with non-2-input cell ",
             cell_name(type));
  check_id(a, "fanin");
  check_id(b, "fanin");
  return add_node(type, a, b, kInvalidNode);
}

NodeId Circuit::add_unary(CellType type, NodeId a) {
  FEMU_CHECK(type == CellType::kBuf || type == CellType::kNot,
             "add_unary with cell ", cell_name(type));
  check_id(a, "fanin");
  return add_node(type, a, kInvalidNode, kInvalidNode);
}

NodeId Circuit::add_mux(NodeId sel, NodeId d0, NodeId d1) {
  check_id(sel, "mux select");
  check_id(d0, "mux d0");
  check_id(d1, "mux d1");
  return add_node(CellType::kMux, sel, d0, d1);
}

NodeId Circuit::add_dff(std::string name) {
  const NodeId id = add_node(CellType::kDff, kInvalidNode, kInvalidNode,
                             kInvalidNode);
  dff_order_.resize(nodes_.size(), kNotDff);
  dff_order_[id] = static_cast<std::uint32_t>(dffs_.size());
  dffs_.push_back(id);
  set_name(id, std::move(name));
  return id;
}

void Circuit::connect_dff(NodeId dff, NodeId d) {
  check_id(dff, "dff");
  check_id(d, "dff D driver");
  FEMU_CHECK(nodes_[dff].type == CellType::kDff, "connect_dff on ",
             cell_name(nodes_[dff].type), " node ", dff);
  FEMU_CHECK(nodes_[dff].fanin[0] == kInvalidNode,
             "DFF ", node_name(dff), " already connected");
  nodes_[dff].fanin[0] = d;
}

void Circuit::add_output(std::string name, NodeId driver) {
  check_id(driver, "output driver");
  outputs_.push_back(OutputPort{std::move(name), driver});
}

void Circuit::set_name(NodeId id, std::string name) {
  check_id(id, "named");
  FEMU_CHECK(!name.empty(), "empty node name");
  const auto [it, inserted] = name_to_id_.emplace(name, id);
  FEMU_CHECK(inserted, "duplicate node name '", name, "' in circuit '",
             name_, "'");
  node_names_[id] = std::move(name);
}

CellType Circuit::type(NodeId id) const {
  check_id(id, "queried");
  return nodes_[id].type;
}

std::span<const NodeId> Circuit::fanins(NodeId id) const {
  check_id(id, "queried");
  const Node& node = nodes_[id];
  return {node.fanin.data(),
          static_cast<std::size_t>(cell_arity(node.type))};
}

std::vector<NodeId> Circuit::dff_drivers() const {
  std::vector<NodeId> drivers;
  drivers.reserve(dffs_.size());
  for (const NodeId dff : dffs_) {
    const NodeId d = nodes_[dff].fanin[0];
    FEMU_CHECK(d != kInvalidNode, "DFF ", node_name(dff),
               " has unconnected D pin");
    drivers.push_back(d);
  }
  return drivers;
}

NodeId Circuit::dff_d(NodeId dff) const {
  check_id(dff, "dff");
  FEMU_CHECK(nodes_[dff].type == CellType::kDff, "dff_d on ",
             cell_name(nodes_[dff].type), " node ", dff);
  return nodes_[dff].fanin[0];
}

std::string Circuit::node_name(NodeId id) const {
  check_id(id, "named");
  if (!node_names_[id].empty()) {
    return node_names_[id];
  }
  return str_cat("n", id);
}

std::optional<NodeId> Circuit::find(std::string_view name) const {
  const auto it = name_to_id_.find(name);
  if (it == name_to_id_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::size_t Circuit::dff_index(NodeId dff) const {
  FEMU_CHECK(dff < dff_order_.size() && dff_order_[dff] != kNotDff, "node ",
             dff, " is not a DFF");
  return dff_order_[dff];
}

void Circuit::validate() const {
  for (const NodeId dff : dffs_) {
    if (nodes_[dff].fanin[0] == kInvalidNode) {
      throw NetlistError(str_cat("circuit '", name_, "': DFF ",
                                 node_name(dff), " has unconnected D pin"));
    }
  }
  for (const auto& port : outputs_) {
    if (port.driver >= nodes_.size()) {
      throw NetlistError(str_cat("circuit '", name_, "': output '", port.name,
                                 "' has invalid driver"));
    }
  }
  // Fanins of combinational nodes precede the node by construction; DFF D is
  // the only permitted back-edge. Re-check here so hand-edited circuits that
  // bypassed the builder invariants are caught before simulation.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.type == CellType::kDff) {
      continue;
    }
    const int arity = cell_arity(node.type);
    for (int i = 0; i < arity; ++i) {
      if (node.fanin[i] >= id) {
        throw NetlistError(str_cat(
            "circuit '", name_, "': node ", node_name(id),
            " references non-preceding fanin — combinational order violated"));
      }
    }
  }
}

}  // namespace femu
