#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/circuit.h"

namespace femu {

/// Reads a circuit in the ISCAS-89 ".bench" structural format, the lingua
/// franca of the ITC'99/ISCAS benchmark suites the paper evaluates on.
///
/// Supported lines:
///   # comment
///   INPUT(name)          OUTPUT(name)
///   x = AND(a, b, ...)   (n-ary AND/OR/XOR build balanced trees;
///                         NAND/NOR/XNOR of arity > 2 become NOT(tree))
///   x = NOT(a) | BUF(a) | BUFF(a)
///   x = DFF(d)           (resets to 0)
///   x = MUX(sel, d0, d1) (extension used by this library's writer)
///   x = CONST0() | CONST1() | GND() | VCC()
///
/// Keywords are case-insensitive; signal names are case-sensitive. A '#'
/// starts a comment anywhere on a line. Every signal is defined once (an
/// INPUT counts as its definition), an operand list ends at its ')', and
/// operands are non-empty. Throws ParseError with the line number on
/// malformed input and NetlistError on combinational loops.
[[nodiscard]] Circuit read_bench(std::istream& in, std::string circuit_name);

/// Parses a .bench netlist held in memory, in place (read_bench and
/// load_bench_file read their input into one string and call this).
[[nodiscard]] Circuit read_bench_string(std::string_view text,
                                        std::string circuit_name);

/// Loads a .bench file from disk.
[[nodiscard]] Circuit load_bench_file(const std::string& path);

/// Writes `circuit` in .bench format. Reading the result back yields a
/// functionally identical circuit (round-trip property, covered by tests).
void write_bench(const Circuit& circuit, std::ostream& out);

[[nodiscard]] std::string write_bench_string(const Circuit& circuit);

/// Saves to a file on disk.
void save_bench_file(const Circuit& circuit, const std::string& path);

}  // namespace femu
