#include "netlist/bench_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "circuits/registry.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/journal.h"
#include "sim/levelized_sim.h"
#include "stim/generate.h"

namespace femu {
namespace {

/// Hash of everything the reader decides: node types, fanins, node names
/// (and whether each is an assigned name), input and DFF order, output ports.
std::uint64_t reader_output_hash(const Circuit& c) {
  Fnv64 h;
  h.u64(c.node_count());
  for (NodeId id = 0; id < c.node_count(); ++id) {
    h.u8(static_cast<std::uint8_t>(c.type(id)));
    for (const NodeId f : c.fanins(id)) {
      h.u32(f);
    }
    const std::string name = c.node_name(id);
    h.str(name);
    h.u8(c.find(name) == id ? 1 : 0);
  }
  h.u64(c.num_inputs());
  for (const NodeId pi : c.inputs()) {
    h.u32(pi);
  }
  h.u64(c.num_dffs());
  for (const NodeId ff : c.dffs()) {
    h.u32(ff);
  }
  h.u64(c.num_outputs());
  for (const auto& port : c.outputs()) {
    h.str(port.name);
    h.u32(port.driver);
  }
  return h.digest();
}

std::string s27_path() { return std::string(FEMU_TESTS_DIR) + "/s27.bench"; }

std::string s27_text() {
  std::ifstream file(s27_path());
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

void expect_same_nodes(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId id = 0; id < a.node_count(); ++id) {
    ASSERT_EQ(a.type(id), b.type(id)) << "node " << id;
    const auto fa = a.fanins(id);
    const auto fb = b.fanins(id);
    ASSERT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin(), fb.end()))
        << "node " << id;
    ASSERT_EQ(a.node_name(id), b.node_name(id)) << "node " << id;
  }
  EXPECT_EQ(a.inputs(), b.inputs());
  EXPECT_EQ(a.dffs(), b.dffs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (std::size_t i = 0; i < a.num_outputs(); ++i) {
    EXPECT_EQ(a.outputs()[i].name, b.outputs()[i].name);
    EXPECT_EQ(a.outputs()[i].driver, b.outputs()[i].driver);
  }
}

TEST(BenchIoTest, ParsesClassicShape) {
  const std::string text = R"(
# simple sequential example
INPUT(a)
INPUT(b)
OUTPUT(y)
s = DFF(ns)
ab = AND(a, b)
ns = XOR(ab, s)
y = OR(s, ab)
)";
  const Circuit c = read_bench_string(text, "simple");
  EXPECT_EQ(c.num_inputs(), 2u);
  EXPECT_EQ(c.num_outputs(), 1u);
  EXPECT_EQ(c.num_dffs(), 1u);
  EXPECT_EQ(c.num_gates(), 3u);
  EXPECT_TRUE(c.find("ns").has_value());
}

TEST(BenchIoTest, ForwardReferencesResolve) {
  // y is defined before its operands appear.
  const std::string text = R"(
INPUT(a)
OUTPUT(y)
y = AND(m, n)
m = NOT(a)
n = BUFF(a)
)";
  const Circuit c = read_bench_string(text, "fwd");
  EXPECT_EQ(c.num_gates(), 3u);
}

TEST(BenchIoTest, NaryGatesBuildTrees) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b, c, d)
z = NOR(a, b, c)
)";
  const Circuit c = read_bench_string(text, "nary");
  LevelizedSimulator sim(c);
  // y = a&b&c&d; z = !(a|b|c). Input bit i of the vector drives inputs()[i]
  // (a=bit0 .. d=bit3); output bit 0 is y, bit 1 is z.
  const auto run = [&sim](std::uint64_t abcd) {
    BitVec in(4);
    for (std::size_t i = 0; i < 4; ++i) {
      in.set(i, ((abcd >> i) & 1) != 0);
    }
    return sim.eval(in);
  };
  EXPECT_TRUE(run(0b1111).get(0));   // y: all ones
  EXPECT_FALSE(run(0b0111).get(0));  // y: d missing
  EXPECT_FALSE(run(0b1111).get(1));  // z: some of a,b,c set
  EXPECT_TRUE(run(0b1000).get(1));   // z: only d set
  EXPECT_TRUE(run(0b0000).get(1));
  EXPECT_FALSE(run(0b0001).get(1));
}

TEST(BenchIoTest, MuxAndConstExtensions) {
  const std::string text = R"(
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(k)
y = MUX(s, a, b)
k = CONST1()
)";
  const Circuit c = read_bench_string(text, "ext");
  LevelizedSimulator sim(c);
  // input bit order: s=bit0, a=bit1, b=bit2
  BitVec in(3);
  in.set(1, true);             // s=0,a=1,b=0 -> y = a = 1
  EXPECT_EQ(sim.eval(in).get(0), true);
  in.set(0, true);             // s=1 -> y = b = 0
  EXPECT_EQ(sim.eval(in).get(0), false);
  EXPECT_EQ(sim.eval(in).get(1), true);  // const1
}

TEST(BenchIoTest, CombinationalLoopRejected) {
  const std::string text = R"(
INPUT(a)
OUTPUT(y)
y = AND(a, z)
z = NOT(y)
)";
  EXPECT_THROW(read_bench_string(text, "loop"), NetlistError);
}

TEST(BenchIoTest, UndefinedSignalRejected) {
  EXPECT_THROW(
      read_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "bad"),
      ParseError);
}

TEST(BenchIoTest, DoubleDefinitionRejected) {
  EXPECT_THROW(read_bench_string(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n", "dup"),
               ParseError);
}

TEST(BenchIoTest, MalformedLinesRejected) {
  EXPECT_THROW(read_bench_string("INPUT a\n", "m1"), ParseError);
  EXPECT_THROW(read_bench_string("WIBBLE(a)\n", "m2"), ParseError);
  EXPECT_THROW(read_bench_string("INPUT(a)\nx = NOT(a, a)\n", "m3"),
               ParseError);
  EXPECT_THROW(read_bench_string("INPUT(a)\nx = FROB(a)\n", "m4"), ParseError);
}

// Asserts that `text` fails with a ParseError whose message names `line`
// and contains `needle`.
void expect_parse_error(const std::string& text, int line,
                        std::string_view needle) {
  try {
    (void)read_bench_string(text, "bad");
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at line " + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(BenchIoTest, GateReusingInputNameRejected) {
  expect_parse_error("INPUT(a)\nINPUT(b)\na = NOT(b)\nOUTPUT(a)\n", 3,
                     "signal 'a' defined twice");
  expect_parse_error("a = NOT(b)\nINPUT(b)\nINPUT(a)\n", 3,
                     "signal 'a' defined twice");
}

TEST(BenchIoTest, DffReusingInputNameRejected) {
  expect_parse_error("INPUT(a)\nOUTPUT(a)\na = DFF(a)\n", 3,
                     "signal 'a' defined twice");
}

TEST(BenchIoTest, InputDeclaredTwiceRejected) {
  expect_parse_error("INPUT(a)\n# again\nINPUT(a)\nOUTPUT(a)\n", 3,
                     "signal 'a' defined twice");
}

TEST(BenchIoTest, TextAfterOperandListRejected) {
  expect_parse_error("INPUT(a)\nx = NOT(a) garbage(\nOUTPUT(x)\n", 2,
                     "unexpected text after ')'");
  expect_parse_error("INPUT(a) b\n", 1, "unexpected text after ')'");
}

TEST(BenchIoTest, EmptyOperandRejected) {
  expect_parse_error("INPUT(a)\nINPUT(b)\nx = AND(a, , b)\n", 3,
                     "empty operand");
  expect_parse_error("INPUT(a)\nINPUT(b)\nx = AND(a, b,)\n", 3,
                     "empty operand");
  expect_parse_error("INPUT(a,)\n", 1, "empty operand");
}

TEST(BenchIoTest, UndefinedSignalNamesItsLine) {
  expect_parse_error("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", 3,
                     "signal 'ghost' is used but never defined");
  expect_parse_error("INPUT(a)\nOUTPUT(ghost)\n", 2,
                     "signal 'ghost' is used but never defined");
}

TEST(BenchIoTest, EmptyConstOperandsAndCommentsStayLegal) {
  const Circuit c = read_bench_string(
      "INPUT(a)   # first input\n"
      "OUTPUT(k)  # (tie-off, k = 0)\n"
      "OUTPUT(y)\n"
      "k = CONST0()  # no operands\n"
      "y = AND( a , k )\n",
      "legal");
  EXPECT_EQ(c.num_inputs(), 1u);
  EXPECT_EQ(c.num_outputs(), 2u);
  LevelizedSimulator sim(c);
  EXPECT_FALSE(sim.eval(BitVec::from_string("1")).get(0));
  EXPECT_FALSE(sim.eval(BitVec::from_string("1")).get(1));
}

TEST(BenchIoTest, StreamAndFileReadersMatchStringReader) {
  const std::string text = s27_text();
  const Circuit from_string = read_bench_string(text, "s27");
  std::istringstream in(text);
  expect_same_nodes(read_bench(in, "s27"), from_string);
  expect_same_nodes(load_bench_file(s27_path()), from_string);
}

TEST(BenchIoTest, OutputCanAliasInput) {
  const Circuit c =
      read_bench_string("INPUT(a)\nOUTPUT(a)\n", "alias");
  EXPECT_EQ(c.num_outputs(), 1u);
  LevelizedSimulator sim(c);
  EXPECT_TRUE(sim.eval(BitVec::from_string("1")).get(0));
}

// Round-trip property: write + re-read every registered benchmark circuit and
// assert cycle-exact behavioural equivalence under random stimuli.
class BenchRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchRoundTrip, WriteReadPreservesBehaviour) {
  const Circuit original = circuits::build_by_name(GetParam());
  const std::string text = write_bench_string(original);
  const Circuit reloaded = read_bench_string(text, original.name());

  ASSERT_EQ(reloaded.num_inputs(), original.num_inputs());
  ASSERT_EQ(reloaded.num_outputs(), original.num_outputs());
  ASSERT_EQ(reloaded.num_dffs(), original.num_dffs());

  const Testbench tb =
      random_testbench(original.num_inputs(), 96, /*seed=*/123);
  LevelizedSimulator sim_a(original);
  LevelizedSimulator sim_b(reloaded);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    ASSERT_TRUE(sim_a.cycle(tb.vector(t)) == sim_b.cycle(tb.vector(t)))
        << GetParam() << " diverged at cycle " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, BenchRoundTrip,
    ::testing::Values("b01_like", "b02_like", "b03_like", "b04_like",
                      "b06_like", "b08_like", "b09_like", "b10_like",
                      "b13_like", "counter16", "lfsr32", "pipe4x16",
                      "viper8", "b14"));

// Random circuits round-trip too (structure stress: muxes, consts, deep DAGs).
class BenchRoundTripRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenchRoundTripRandom, WriteReadPreservesBehaviour) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 6;
  spec.num_dffs = 12;
  spec.num_gates = 150;
  const Circuit original = circuits::build_random(spec, GetParam());
  const Circuit reloaded =
      read_bench_string(write_bench_string(original), original.name());

  const Testbench tb = random_testbench(spec.num_inputs, 64, GetParam());
  LevelizedSimulator sim_a(original);
  LevelizedSimulator sim_b(reloaded);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    ASSERT_TRUE(sim_a.cycle(tb.vector(t)) == sim_b.cycle(tb.vector(t)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchRoundTripRandom,
                         ::testing::Range<std::uint64_t>(0, 8));

// Pinned structure hashes: any change to what the reader builds (ids, types,
// fanins, names, ports) fails here. b14 and pipe32x128 go through
// write_bench_string, so a writer change shows here too.
TEST(BenchIoTest, ReaderOutputPinnedOnS27) {
  const Circuit c = load_bench_file(s27_path());
  EXPECT_EQ(reader_output_hash(c), 0x91dbf6b25d5c7115ull);
}

TEST(BenchIoTest, ReaderOutputPinnedOnB14) {
  const Circuit c = read_bench_string(write_bench_string(circuits::build_b14()), "b14");
  EXPECT_EQ(reader_output_hash(c), 0x1c4c42ddff531598ull);
}

TEST(BenchIoTest, ReaderOutputPinnedOnPipe32x128) {
  const Circuit c = read_bench_string(
      write_bench_string(circuits::build_pipeline(32, 128)), "pipe32x128");
  EXPECT_EQ(reader_output_hash(c), 0xbcc3f5f4ab6e3aeaull);
}

// read(write(.)) reaches a fixpoint after one round: the reader's naming and
// id order survive another write/read unchanged.
TEST_P(BenchRoundTripRandom, ReadWriteReachesFixpoint) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 6;
  spec.num_dffs = 12;
  spec.num_gates = 150;
  const Circuit original = circuits::build_random(spec, GetParam());
  const Circuit once =
      read_bench_string(write_bench_string(original), original.name());
  const Circuit twice =
      read_bench_string(write_bench_string(once), original.name());
  expect_same_nodes(once, twice);
}

// ---- deterministic loader fuzz ---------------------------------------------

/// Applies one random mutation: a byte flip, a deletion, a duplicated or a
/// truncated line, or a stray '(' ')' ',' '='.
void mutate_once(std::string& text, Rng& rng) {
  if (text.empty()) {
    text.push_back('(');
    return;
  }
  const std::size_t pos = rng.below(text.size());
  // [first, end) of the line holding text[at], without its newline.
  const auto line_bounds = [&](std::size_t at) {
    const std::size_t prev = at == 0 ? std::string::npos
                                     : text.rfind('\n', at - 1);
    const std::size_t first = prev == std::string::npos ? 0 : prev + 1;
    const std::size_t end = text.find('\n', at);
    return std::pair{first, end == std::string::npos ? text.size() : end};
  };
  switch (rng.below(5)) {
    case 0:
      text[pos] = static_cast<char>(text[pos] ^ (1u << rng.below(8)));
      break;
    case 1:
      text.erase(pos, 1 + rng.below(8));
      break;
    case 2: {
      const auto [first, end] = line_bounds(pos);
      const std::string line = text.substr(first, end - first) + "\n";
      text.insert(first, line);
      break;
    }
    case 3: {
      const auto [first, end] = line_bounds(pos);
      const std::size_t cut = first + rng.below(end - first + 1);
      text.erase(cut, end - cut);
      break;
    }
    default: {
      static constexpr char kStray[] = {'(', ')', ',', '='};
      text.insert(pos, 1, kStray[rng.below(4)]);
      break;
    }
  }
}

/// Runs `iterations` mutated texts through the reader. Each must parse or
/// throw ParseError/NetlistError; anything else (a bare femu::Error from an
/// internal check, another exception, a crash) fails the test.
void fuzz_reader(std::uint64_t seed, int iterations) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 3;
  spec.num_outputs = 3;
  spec.num_dffs = 4;
  spec.num_gates = 24;
  const std::string bases[] = {
      s27_text(), write_bench_string(circuits::build_random(spec, seed))};
  Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < iterations; ++i) {
    std::string text = bases[i % 2];
    for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
      mutate_once(text, rng);
    }
    try {
      (void)read_bench_string(text, "fuzz");
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const NetlistError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << " threw " << e.what() << " on:\n"
             << text;
    }
  }
  // Both outcomes must be common, or the mutations are too weak/strong.
  EXPECT_GT(parsed, iterations / 20);
  EXPECT_GT(rejected, iterations / 20);
}

TEST(BenchIoFuzzTest, MutatedTextParsesOrThrowsTypedError) {
  fuzz_reader(/*seed=*/1, /*iterations=*/20000);
}

TEST(BenchIoFuzzSlowTest, MutatedTextParsesOrThrowsTypedError) {
  fuzz_reader(/*seed=*/2, /*iterations=*/200000);
}

}  // namespace
}  // namespace femu
