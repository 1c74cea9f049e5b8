// Fault-dictionary edge cases and the compiled-engine build path: diagnose
// on a never-deviating trace, ambiguous (equivalent) faults, resolution()
// accounting, and bit-exact agreement between the serial build() and the
// signature-capturing compiled campaign — plus the binary round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "circuits/generators.h"
#include "common/error.h"
#include "fault/dictionary.h"
#include "fault/fault_list.h"
#include "fault/journal.h"
#include "fault/parallel_faultsim.h"
#include "stim/generate.h"

namespace femu {
namespace {

Circuit random_circuit(std::uint64_t seed, std::size_t gates = 200,
                       std::size_t dffs = 18) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = dffs;
  spec.num_gates = gates;
  return circuits::build_random(spec, seed);
}

// ---- diagnose / lookup edge cases ------------------------------------------

TEST(Dictionary, NeverDeviatingTraceDiagnosesEmpty) {
  const Circuit c = random_circuit(11);
  const Testbench tb = random_testbench(c.num_inputs(), 48, 7);
  const auto faults = complete_fault_list(c.num_dffs(), 48);
  const FaultDictionary dict = FaultDictionary::build(c, tb, faults);

  // The golden trace itself: no deviation, so no candidates — and no throw.
  ParallelFaultSimulator sim(c, tb);
  EXPECT_TRUE(dict.diagnose(sim.golden().outputs).empty());

  // A trace shorter than the golden run must also be handled.
  const std::span<const BitVec> prefix(sim.golden().outputs.data(), 5);
  EXPECT_TRUE(dict.diagnose(prefix).empty());
  EXPECT_TRUE(dict.diagnose({}).empty());
}

TEST(Dictionary, SignatureOfNonFailureIsEmpty) {
  const Circuit c = random_circuit(12);
  const Testbench tb = random_testbench(c.num_inputs(), 48, 7);
  const auto faults = complete_fault_list(c.num_dffs(), 48);
  const FaultDictionary dict = FaultDictionary::build(c, tb, faults);

  ParallelFaultSimulator sim(c, tb);
  const CampaignResult graded = sim.run(faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultSignature sig = dict.signature_of(faults[i]);
    if (graded.outcomes()[i].cls == FaultClass::kFailure) {
      EXPECT_EQ(sig.detect_cycle, graded.outcomes()[i].detect_cycle);
    } else {
      EXPECT_EQ(sig.detect_cycle, kNoCycle);
      EXPECT_EQ(sig.syndrome_hash, 0u);
    }
  }
  // A fault that was never in the campaign at all.
  const FaultSignature unknown = dict.signature_of(
      Fault{static_cast<std::uint32_t>(c.num_dffs() + 7), 9999});
  EXPECT_EQ(unknown.detect_cycle, kNoCycle);
}

TEST(Dictionary, AmbiguousEquivalentFaultsShareOneEntry) {
  // Two faults with the identical (detect cycle, syndrome) signature are
  // inherently indistinguishable: lookup must return both candidates and
  // resolution() must count one distinct signature over two failures.
  const std::vector<Fault> faults{{0, 3}, {1, 3}, {2, 5}};
  const std::vector<FaultOutcome> outcomes{
      {FaultClass::kFailure, 7, kNoCycle},
      {FaultClass::kFailure, 7, kNoCycle},
      {FaultClass::kSilent, kNoCycle, 6},
  };
  const std::vector<std::uint64_t> sigs{0xabcdu, 0xabcdu, 0u};
  const FaultDictionary dict = FaultDictionary::from_campaign(
      faults, outcomes, sigs, std::vector<BitVec>{});

  const std::vector<Fault> candidates =
      dict.lookup(FaultSignature{7, 0xabcdu});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0], (Fault{0, 3}));
  EXPECT_EQ(candidates[1], (Fault{1, 3}));
  EXPECT_EQ(dict.num_entries(), 2u);        // the silent fault is not indexed
  EXPECT_DOUBLE_EQ(dict.resolution(), 0.5);  // 1 signature / 2 failures
}

TEST(Dictionary, ResolutionAccounting) {
  // Empty dictionary: vacuously perfect resolution.
  const FaultDictionary empty = FaultDictionary::from_campaign(
      {}, {}, {}, std::vector<BitVec>{});
  EXPECT_EQ(empty.num_entries(), 0u);
  EXPECT_DOUBLE_EQ(empty.resolution(), 1.0);

  // 3 failures, 2 distinct signatures -> 2/3.
  const std::vector<Fault> faults{{0, 1}, {1, 1}, {2, 1}};
  const std::vector<FaultOutcome> outcomes{
      {FaultClass::kFailure, 4, kNoCycle},
      {FaultClass::kFailure, 4, kNoCycle},
      {FaultClass::kFailure, 5, kNoCycle},
  };
  const std::vector<std::uint64_t> sigs{1u, 1u, 2u};
  const FaultDictionary dict = FaultDictionary::from_campaign(
      faults, outcomes, sigs, std::vector<BitVec>{});
  EXPECT_EQ(dict.num_entries(), 3u);
  EXPECT_DOUBLE_EQ(dict.resolution(), 2.0 / 3.0);
}

// ---- compiled campaign signatures vs the serial reference ------------------

TEST(Dictionary, CompiledSignaturesMatchSerialBuild) {
  const Circuit c = random_circuit(21);
  const Testbench tb = random_testbench(c.num_inputs(), 64, 17);
  const auto faults = complete_fault_list(c.num_dffs(), 64);

  const FaultDictionary serial = FaultDictionary::build(c, tb, faults);
  const FaultDictionary compiled = FaultDictionary::build_compiled(c, tb,
                                                                   faults);

  ASSERT_EQ(compiled.num_entries(), serial.num_entries());
  EXPECT_DOUBLE_EQ(compiled.resolution(), serial.resolution());
  for (const Fault& f : faults) {
    EXPECT_EQ(compiled.signature_of(f), serial.signature_of(f))
        << "ff=" << f.ff_index << " cycle=" << f.cycle;
  }
}

// ---- serialization ---------------------------------------------------------

TEST(Dictionary, SaveLoadRoundTrip) {
  const Circuit c = random_circuit(31);
  const Testbench tb = random_testbench(c.num_inputs(), 48, 5);
  const auto faults = complete_fault_list(c.num_dffs(), 48);
  const FaultDictionary dict = FaultDictionary::build_compiled(c, tb, faults);

  std::stringstream buffer;
  dict.save(buffer);
  const FaultDictionary loaded = FaultDictionary::load(buffer);

  ASSERT_EQ(loaded.num_entries(), dict.num_entries());
  EXPECT_DOUBLE_EQ(loaded.resolution(), dict.resolution());
  for (const Fault& f : faults) {
    EXPECT_EQ(loaded.signature_of(f), dict.signature_of(f));
    EXPECT_EQ(loaded.lookup(dict.signature_of(f)),
              dict.lookup(dict.signature_of(f)));
  }
}

TEST(Dictionary, LoadRejectsCorruptBytes) {
  const Circuit c = random_circuit(32, /*gates=*/120, /*dffs=*/10);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 5);
  const auto faults = complete_fault_list(c.num_dffs(), 32);
  const FaultDictionary dict = FaultDictionary::build_compiled(c, tb, faults);

  std::stringstream buffer;
  dict.save(buffer);
  std::string bytes = buffer.str();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  std::stringstream corrupt(bytes);
  EXPECT_THROW((void)FaultDictionary::load(corrupt), Error);

  std::stringstream not_a_dict("definitely not a dictionary");
  EXPECT_THROW((void)FaultDictionary::load(not_a_dict), Error);
}

/// Overwrites the u64 at `offset` of a saved dictionary and recomputes the
/// trailing checksum over the payload (everything after the 8-byte magic),
/// so the loader's checksum gate passes and its count checks are reached.
std::string patch_u64_and_reseal(std::string bytes, std::size_t offset,
                                 std::uint64_t value) {
  const auto put = [&](std::size_t at, std::uint64_t v) {
    bytes.replace(at, sizeof v, reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(offset, value);
  Fnv64 sum;
  sum.bytes(bytes.data() + 8, bytes.size() - 8 - sizeof(std::uint64_t));
  put(bytes.size() - sizeof(std::uint64_t), sum.digest());
  return bytes;
}

TEST(Dictionary, LoadRejectsResealedHugeCounts) {
  const Circuit c = random_circuit(34, /*gates=*/120, /*dffs=*/10);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 5);
  const auto faults = complete_fault_list(c.num_dffs(), 32);
  const FaultDictionary dict = FaultDictionary::build_compiled(c, tb, faults);
  std::stringstream buffer;
  dict.save(buffer);
  const std::string bytes = buffer.str();

  // Payload layout: u32 version, u64 output count, then per golden output
  // vector u64 bits, u64 words and the words; then u64 entry count.
  constexpr std::size_t kOutputsAt = 8 + 4;
  constexpr std::size_t kFirstBitsAt = kOutputsAt + 8;
  const std::size_t entries_at =
      kFirstBitsAt + tb.num_cycles() * (2 + (c.num_outputs() + 63) / 64) * 8;
  std::uint64_t field = 0;
  std::memcpy(&field, bytes.data() + kOutputsAt, sizeof field);
  ASSERT_EQ(field, tb.num_cycles());
  std::memcpy(&field, bytes.data() + entries_at, sizeof field);
  ASSERT_EQ(field, dict.num_entries());

  const std::uint64_t huge = std::uint64_t{1} << 61;
  const auto expect_error = [](const std::string& crafted) {
    std::stringstream in(crafted);
    EXPECT_THROW((void)FaultDictionary::load(in), Error);
  };
  expect_error(patch_u64_and_reseal(bytes, kOutputsAt, huge));
  // A consistent bits/words pair far beyond the file.
  expect_error(patch_u64_and_reseal(
      patch_u64_and_reseal(bytes, kFirstBitsAt, huge), kFirstBitsAt + 8,
      huge / 64));
  // bits + 63 wraps to a word count that matches zero words.
  expect_error(patch_u64_and_reseal(
      patch_u64_and_reseal(bytes, kFirstBitsAt, ~std::uint64_t{0}),
      kFirstBitsAt + 8, 0));
  expect_error(patch_u64_and_reseal(bytes, entries_at, huge));
}

TEST(Dictionary, SaveFileIsAtomicAndLoadable) {
  const Circuit c = random_circuit(33, /*gates=*/120, /*dffs=*/10);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 5);
  const auto faults = complete_fault_list(c.num_dffs(), 32);
  const FaultDictionary dict = FaultDictionary::build_compiled(c, tb, faults);

  const std::string path = ::testing::TempDir() + "femu_test_dict.bin";
  dict.save_file(path);
  const FaultDictionary loaded = FaultDictionary::load_file(path);
  EXPECT_EQ(loaded.num_entries(), dict.num_entries());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace femu
