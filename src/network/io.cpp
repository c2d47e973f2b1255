#include "network/io.hpp"

#include "core/error.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace t1sfq {

namespace {

std::string signal_name(const Network& net, NodeId id) {
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    if (net.pi(i) == id) {
      return net.pi_name(i);
    }
  }
  return "n" + std::to_string(id);
}

/// BLIF cover rows for each single-output cell type.
const char* blif_cover(GateType t) {
  switch (t) {
    case GateType::Not: return "0 1\n";
    case GateType::Buf: return "1 1\n";
    case GateType::And2: return "11 1\n";
    case GateType::Or2: return "1- 1\n-1 1\n";
    case GateType::Xor2: return "10 1\n01 1\n";
    case GateType::Nand2: return "0- 1\n-0 1\n";
    case GateType::Nor2: return "00 1\n";
    case GateType::Xnor2: return "11 1\n00 1\n";
    case GateType::And3: return "111 1\n";
    case GateType::Or3: return "1-- 1\n-1- 1\n--1 1\n";
    case GateType::Xor3: return "100 1\n010 1\n001 1\n111 1\n";
    case GateType::Maj3: return "11- 1\n1-1 1\n-11 1\n";
    default: return nullptr;
  }
}

const char* t1_port_pin(T1PortFn fn) {
  switch (fn) {
    case T1PortFn::Sum: return "s";
    case T1PortFn::Carry: return "co";
    case T1PortFn::Or: return "q";
    case T1PortFn::CarryN: return "cn";
    case T1PortFn::OrN: return "qn";
  }
  return "?";
}

}  // namespace

void write_blif(const Network& net, std::ostream& os) {
  os << ".model " << (net.name().empty() ? "top" : net.name()) << "\n";
  os << ".inputs";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << " " << net.pi_name(i);
  }
  os << "\n.outputs";
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    os << " " << net.po_name(i);
  }
  os << "\n";

  // Group live T1 ports under their bodies.
  std::map<NodeId, std::vector<NodeId>> t1_ports;
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    if (!n.dead && n.type == GateType::T1Port) {
      t1_ports[n.fanin(0)].push_back(id);
    }
  }

  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    if (n.dead) continue;
    const std::string y = signal_name(net, id);
    switch (n.type) {
      case GateType::Pi:
        break;
      case GateType::Const0:
        os << ".names " << y << "\n";
        break;
      case GateType::Const1:
        os << ".names " << y << "\n1\n";
        break;
      case GateType::Dff:
        os << ".subckt dff d=" << signal_name(net, n.fanin(0)) << " q=" << y << "\n";
        break;
      case GateType::T1: {
        os << ".subckt t1 a=" << signal_name(net, n.fanin(0))
           << " b=" << signal_name(net, n.fanin(1)) << " c=" << signal_name(net, n.fanin(2));
        const auto it = t1_ports.find(id);
        if (it != t1_ports.end()) {
          for (NodeId port : it->second) {
            os << " " << t1_port_pin(net.node(port).port) << "=" << signal_name(net, port);
          }
        }
        os << "\n";
        break;
      }
      case GateType::T1Port:
        break;  // emitted with the body
      default: {
        const char* cover = blif_cover(n.type);
        if (!cover) {
          throw IoError("write_blif: unsupported cell");
        }
        os << ".names";
        for (uint8_t i = 0; i < n.num_fanins; ++i) {
          os << " " << signal_name(net, n.fanin(i));
        }
        os << " " << y << "\n" << cover;
      }
    }
  }

  // Tie POs to their driving signals where the names differ.
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const std::string drv = signal_name(net, net.po(i));
    if (drv != net.po_name(i)) {
      os << ".names " << drv << " " << net.po_name(i) << "\n1 1\n";
    }
  }
  os << ".end\n";
}

void write_blif_file(const Network& net, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw IoError("write_blif_file: cannot open " + path);
  }
  write_blif(net, os);
}

namespace {

struct BlifNames {
  std::vector<std::string> inputs;  // fanin signals
  std::string output;
  std::vector<std::string> cubes;   // "<mask> 1" rows, mask over inputs
};

struct BlifSubckt {
  std::string cell;
  std::map<std::string, std::string> pins;  // formal -> actual

  const std::string& pin(const std::string& formal) const {
    const auto it = pins.find(formal);
    if (it == pins.end()) {
      throw ParseError("read_blif: .subckt " + cell + " lacks pin " + formal);
    }
    return it->second;
  }
};

struct BlifModel {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<BlifNames> names;
  std::vector<BlifSubckt> subckts;
};

BlifModel parse_blif(std::istream& is) {
  BlifModel model;
  std::string line;
  std::string pending;
  BlifNames* open_names = nullptr;
  while (std::getline(is, line)) {
    // Handle continuations and comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    if (!line.empty() && line.back() == '\\') {
      line.pop_back();
      pending += line;
      continue;
    }
    line = pending + line;
    pending.clear();

    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) {
      tok.push_back(t);
    }
    if (tok.empty()) continue;

    if (tok[0][0] == '.') {
      open_names = nullptr;
      if (tok[0] == ".model") {
        if (tok.size() > 1) model.name = tok[1];
      } else if (tok[0] == ".inputs") {
        model.inputs.insert(model.inputs.end(), tok.begin() + 1, tok.end());
      } else if (tok[0] == ".outputs") {
        model.outputs.insert(model.outputs.end(), tok.begin() + 1, tok.end());
      } else if (tok[0] == ".names") {
        if (tok.size() < 2) {
          throw ParseError("read_blif: .names without an output");
        }
        BlifNames rec;
        rec.output = tok.back();
        rec.inputs.assign(tok.begin() + 1, tok.end() - 1);
        model.names.push_back(std::move(rec));
        open_names = &model.names.back();
      } else if (tok[0] == ".subckt") {
        if (tok.size() < 2) {
          throw ParseError("read_blif: .subckt without a cell name");
        }
        BlifSubckt s;
        s.cell = tok[1];
        for (std::size_t i = 2; i < tok.size(); ++i) {
          const auto eq = tok[i].find('=');
          if (eq == std::string::npos) {
            throw ParseError("read_blif: malformed .subckt pin " + tok[i]);
          }
          s.pins[tok[i].substr(0, eq)] = tok[i].substr(eq + 1);
        }
        model.subckts.push_back(std::move(s));
      } else if (tok[0] == ".end") {
        break;
      } else if (tok[0] == ".latch") {
        throw ParseError("read_blif: .latch not supported; use .subckt dff");
      } else {
        // A directive this parser would silently drop is a directive whose
        // semantics would silently change the circuit — reject it.
        throw ParseError("read_blif: unsupported directive " + tok[0]);
      }
      continue;
    }
    if (open_names) {
      if (tok.size() == 1 && open_names->inputs.empty()) {
        open_names->cubes.push_back(tok[0]);  // constant-1 record
      } else if (tok.size() == 2) {
        if (tok[1] != "1") {
          throw ParseError("read_blif: only on-set covers are supported");
        }
        open_names->cubes.push_back(tok[0]);
      } else {
        throw ParseError("read_blif: malformed cube line: " + line);
      }
    }
  }
  return model;
}

}  // namespace

Network read_blif(std::istream& is) {
  const BlifModel model = parse_blif(is);
  Network net(model.name);

  std::unordered_map<std::string, NodeId> sig;
  for (const auto& in : model.inputs) {
    sig[in] = net.add_pi(in);
  }

  // Records may appear in any order: iterate until every record resolves.
  struct Record {
    const BlifNames* names = nullptr;
    const BlifSubckt* subckt = nullptr;
    bool done = false;
  };
  std::vector<Record> records;
  for (const auto& r : model.names) {
    records.push_back({&r, nullptr, false});
  }
  for (const auto& s : model.subckts) {
    records.push_back({nullptr, &s, false});
  }

  const auto have = [&](const std::string& s) { return sig.count(s) != 0; };
  std::size_t remaining = records.size();
  while (remaining > 0) {
    bool progress = false;
    for (auto& rec : records) {
      if (rec.done) continue;
      if (rec.names) {
        const BlifNames& r = *rec.names;
        if (!std::all_of(r.inputs.begin(), r.inputs.end(), have)) continue;
        NodeId out;
        if (r.inputs.empty()) {
          out = r.cubes.empty() ? net.get_const0() : net.get_const1();
        } else {
          // Sum of products over the cube rows.
          NodeId acc = kNullNode;
          for (const auto& cube : r.cubes) {
            if (cube.size() != r.inputs.size()) {
              throw ParseError("read_blif: cube width mismatch");
            }
            NodeId prod = kNullNode;
            for (std::size_t i = 0; i < cube.size(); ++i) {
              if (cube[i] == '-') continue;
              NodeId lit = sig[r.inputs[i]];
              if (cube[i] == '0') {
                lit = net.add_not(lit);
              }
              prod = prod == kNullNode ? lit : net.add_and(prod, lit);
            }
            if (prod == kNullNode) {
              prod = net.get_const1();
            }
            acc = acc == kNullNode ? prod : net.add_or(acc, prod);
          }
          out = acc == kNullNode ? net.get_const0() : acc;
        }
        sig[r.output] = out;
        rec.done = true;
        progress = true;
        --remaining;
      } else {
        const BlifSubckt& s = *rec.subckt;
        if (s.cell == "dff") {
          if (!have(s.pin("d"))) continue;
          sig[s.pin("q")] = net.add_dff(sig[s.pin("d")]);
        } else if (s.cell == "t1") {
          if (!have(s.pin("a")) || !have(s.pin("b")) || !have(s.pin("c"))) {
            continue;
          }
          const NodeId body =
              net.add_t1(sig[s.pin("a")], sig[s.pin("b")], sig[s.pin("c")]);
          const std::pair<const char*, T1PortFn> port_pins[] = {
              {"s", T1PortFn::Sum},     {"co", T1PortFn::Carry}, {"q", T1PortFn::Or},
              {"cn", T1PortFn::CarryN}, {"qn", T1PortFn::OrN}};
          for (const auto& [pin, fn] : port_pins) {
            const auto it = s.pins.find(pin);
            if (it != s.pins.end()) {
              sig[it->second] = net.add_t1_port(body, fn);
            }
          }
        } else {
          throw ParseError("read_blif: unknown subcircuit " + s.cell);
        }
        rec.done = true;
        progress = true;
        --remaining;
      }
    }
    if (!progress) {
      throw ParseError("read_blif: unresolvable signal dependencies (cycle?)");
    }
  }

  for (const auto& out : model.outputs) {
    const auto it = sig.find(out);
    if (it == sig.end()) {
      throw ParseError("read_blif: undriven output " + out);
    }
    net.add_po(it->second, out);
  }
  return net;
}

Network read_blif_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw IoError("read_blif_file: cannot open " + path);
  }
  return read_blif(is);
}

void write_verilog(const Network& net, std::ostream& os) {
  const auto vname = [&](NodeId id) {
    std::string s = signal_name(net, id);
    return s;
  };
  os << "module " << (net.name().empty() ? "top" : net.name()) << " (\n  ";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << net.pi_name(i) << ", ";
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    os << net.po_name(i) << (i + 1 == net.num_pos() ? "" : ", ");
  }
  os << "\n);\n";
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    os << "  input " << net.pi_name(i) << ";\n";
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    os << "  output " << net.po_name(i) << ";\n";
  }
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    if (n.dead || n.type == GateType::Pi) continue;
    os << "  wire " << vname(id) << ";\n";
  }
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    if (n.dead) continue;
    const std::string y = vname(id);
    const auto f = [&](unsigned i) { return vname(n.fanin(i)); };
    switch (n.type) {
      case GateType::Pi: break;
      case GateType::Const0: os << "  assign " << y << " = 1'b0;\n"; break;
      case GateType::Const1: os << "  assign " << y << " = 1'b1;\n"; break;
      case GateType::Buf: os << "  assign " << y << " = " << f(0) << ";\n"; break;
      case GateType::Not: os << "  assign " << y << " = ~" << f(0) << ";\n"; break;
      case GateType::And2: os << "  assign " << y << " = " << f(0) << " & " << f(1) << ";\n"; break;
      case GateType::Or2: os << "  assign " << y << " = " << f(0) << " | " << f(1) << ";\n"; break;
      case GateType::Xor2: os << "  assign " << y << " = " << f(0) << " ^ " << f(1) << ";\n"; break;
      case GateType::Nand2: os << "  assign " << y << " = ~(" << f(0) << " & " << f(1) << ");\n"; break;
      case GateType::Nor2: os << "  assign " << y << " = ~(" << f(0) << " | " << f(1) << ");\n"; break;
      case GateType::Xnor2: os << "  assign " << y << " = ~(" << f(0) << " ^ " << f(1) << ");\n"; break;
      case GateType::And3: os << "  assign " << y << " = " << f(0) << " & " << f(1) << " & " << f(2) << ";\n"; break;
      case GateType::Or3: os << "  assign " << y << " = " << f(0) << " | " << f(1) << " | " << f(2) << ";\n"; break;
      case GateType::Xor3: os << "  assign " << y << " = " << f(0) << " ^ " << f(1) << " ^ " << f(2) << ";\n"; break;
      case GateType::Maj3:
        os << "  assign " << y << " = (" << f(0) << " & " << f(1) << ") | (" << f(0) << " & "
           << f(2) << ") | (" << f(1) << " & " << f(2) << ");\n";
        break;
      case GateType::Dff:
        os << "  sfq_dff dff_" << id << " (.d(" << f(0) << "), .q(" << y << "));\n";
        break;
      case GateType::T1:
        os << "  // t1 body " << id << " (ports instantiate the cell)\n";
        break;
      case GateType::T1Port: {
        const Node& body = net.node(n.fanin(0));
        os << "  sfq_t1_" << t1_port_pin(n.port) << " t1p_" << id << " (.a("
           << vname(body.fanin(0)) << "), .b(" << vname(body.fanin(1)) << "), .c("
           << vname(body.fanin(2)) << "), .y(" << y << "));\n";
        break;
      }
    }
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    if (vname(net.po(i)) != net.po_name(i)) {
      os << "  assign " << net.po_name(i) << " = " << vname(net.po(i)) << ";\n";
    }
  }
  os << "endmodule\n";
}

void write_verilog_file(const Network& net, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw IoError("write_verilog_file: cannot open " + path);
  }
  write_verilog(net, os);
}

}  // namespace t1sfq
