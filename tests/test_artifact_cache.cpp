// The persistent artifact cache's contract: a warm load is bit-identical to
// a cold build (same golden trace, optimized kernel, classifications — for
// every fault model and thread count), the key derivation matches what the
// engine computes, and every bad-entry flavor — corrupt bytes, truncation,
// version skew, a foreign fingerprint, a resealed oversized count, a netlist
// edit — degrades to a warned rebuild that still grades correctly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/artifact_cache.h"
#include "fault/fault_list.h"
#include "fault/journal.h"
#include "fault/mbu.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "sim/kernel_opt.h"
#include "sim/golden.h"
#include "stim/generate.h"

namespace femu {
namespace {

namespace fs = std::filesystem;

/// Same deterministic two-bank revision circuit as tests/test_regrade.cpp:
/// edit 0 is the baseline, edit 1 flips one bank-B gate's cell type — the
/// minimal netlist edit that must invalidate a cached entry.
Circuit build_revision(std::uint64_t seed, int edit) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto rnd = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  Circuit c("rev" + std::to_string(edit));
  std::vector<NodeId> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(c.add_input("in" + std::to_string(i)));
  }
  std::vector<NodeId> ffs_a;
  std::vector<NodeId> ffs_b;
  for (int i = 0; i < 5; ++i) {
    ffs_a.push_back(c.add_dff("ffa" + std::to_string(i)));
  }
  for (int i = 0; i < 5; ++i) {
    ffs_b.push_back(c.add_dff("ffb" + std::to_string(i)));
  }
  const auto build_bank = [&](const std::vector<NodeId>& bank_ffs,
                              bool edited_bank) {
    std::vector<NodeId> pool = inputs;
    pool.insert(pool.end(), bank_ffs.begin(), bank_ffs.end());
    std::vector<NodeId> gates;
    for (int g = 0; g < 30; ++g) {
      const NodeId a = pool[rnd() % pool.size()];
      const NodeId b = pool[rnd() % pool.size()];
      CellType type = (rnd() % 2 != 0) ? CellType::kAnd : CellType::kXor;
      if (edited_bank && edit == 1 && g == 27) {
        type = type == CellType::kAnd ? CellType::kXor : CellType::kAnd;
      }
      const NodeId n = c.add_gate(type, a, b);
      gates.push_back(n);
      pool.push_back(n);
    }
    for (std::size_t i = 0; i < bank_ffs.size(); ++i) {
      c.connect_dff(bank_ffs[i], gates[10 + 3 * i]);
    }
    return gates;
  };
  const std::vector<NodeId> gates_a = build_bank(ffs_a, false);
  const std::vector<NodeId> gates_b = build_bank(ffs_b, true);
  c.add_output("o0", gates_a[gates_a.size() - 1]);
  c.add_output("o1", gates_a[gates_a.size() - 3]);
  c.add_output("o2", gates_b[gates_b.size() - 1]);
  c.add_output("o3", gates_b[gates_b.size() - 3]);
  c.validate();
  return c;
}

/// Fresh per-test scratch cache directory.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// The one entry file a single-shape campaign leaves in `dir`.
fs::path only_entry(const std::string& dir) {
  fs::path entry;
  std::size_t count = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    entry = e.path();
    ++count;
  }
  EXPECT_EQ(count, 1u) << dir;
  return entry;
}

CampaignConfig cached_config(const std::string& dir, unsigned threads = 0) {
  CampaignConfig config;  // default: compiled, 512 lanes
  config.cache_dir = dir;
  config.num_threads = threads;
  return config;
}

/// The exact key the engine derives — kept in lockstep by
/// CacheKeyMatchesEngine below.
ArtifactCacheKey engine_key(const Circuit& circuit, const Testbench& tb) {
  ArtifactCacheKey key;
  key.circuit = circuit_structure_hash(circuit);
  key.testbench = testbench_content_hash(tb);
  key.config_rule = campaign_config_rule_hash();
  key.optimizer = optimizer_pipeline_hash();
  return key;
}

/// Reads an entry, lets `patch` edit its bytes (magic included), recomputes
/// the trailing checksum over the payload and writes it back — so the
/// loader's checksum gate passes and the section checks behind it are what
/// the test exercises.
template <typename Patch>
void patch_and_reseal(const fs::path& entry, const Patch& patch) {
  std::vector<char> blob(fs::file_size(entry));
  {
    std::ifstream in(entry, std::ios::binary);
    in.read(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  patch(blob);
  Fnv64 sum;
  sum.bytes(reinterpret_cast<const std::uint8_t*>(blob.data()) + 8,
            blob.size() - 8 - sizeof(std::uint64_t));
  const std::uint64_t digest = sum.digest();
  std::memcpy(blob.data() + blob.size() - sizeof digest, &digest,
              sizeof digest);
  std::ofstream out(entry, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

// ---- round trip ------------------------------------------------------------

TEST(ArtifactCache, ColdStoresWarmHitsAndGradesIdentically) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());
  const std::string dir = fresh_dir("cache-roundtrip");

  CampaignConfig no_cache;
  ParallelFaultSimulator reference(circuit, tb, no_cache);
  const ClassCounts expected = reference.run(faults).counts();

  ParallelFaultSimulator cold(circuit, tb, cached_config(dir));
  EXPECT_EQ(cold.telemetry_snapshot().cache_misses, 1u);
  EXPECT_EQ(cold.telemetry_snapshot().cache_hits, 0u);
  EXPECT_GT(cold.telemetry_snapshot().cache_bytes_written, 0u);
  const ClassCounts cold_counts = cold.run(faults).counts();

  // Warm runs at several thread counts: same entry, same classifications.
  for (const unsigned threads : {1u, 4u}) {
    ParallelFaultSimulator warm(circuit, tb, cached_config(dir, threads));
    EXPECT_EQ(warm.telemetry_snapshot().cache_hits, 1u);
    EXPECT_EQ(warm.telemetry_snapshot().cache_misses, 0u);
    EXPECT_GT(warm.telemetry_snapshot().cache_bytes_read, 0u);
    const ClassCounts warm_counts = warm.run(faults).counts();
    EXPECT_EQ(warm_counts.failure, expected.failure);
    EXPECT_EQ(warm_counts.latent, expected.latent);
    EXPECT_EQ(warm_counts.silent, expected.silent);
  }
  EXPECT_EQ(cold_counts.failure, expected.failure);
  EXPECT_EQ(cold_counts.latent, expected.latent);
  EXPECT_EQ(cold_counts.silent, expected.silent);
}

TEST(ArtifactCache, WarmGradingIdenticalForEveryModel) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-models");
  const auto seu = complete_fault_list(circuit.num_dffs(), tb.num_cycles());
  const auto mbu = adjacent_pair_fault_list(circuit.num_dffs(),
                                            tb.num_cycles());
  const SetSites sites(circuit);
  const auto set = complete_set_fault_list(sites, tb.num_cycles(),
                                           /*collapsed=*/true);
  const auto stuckat = complete_stuckat_fault_list(sites);

  // One engine per (cache state, model): the four models share one entry
  // (the golden trace and the FF-model kernel; overlay models run the raw
  // kernel, compiled fresh).
  const auto counts_with = [&](const std::string& cache_dir) {
    std::vector<ClassCounts> all;
    {
      ParallelFaultSimulator sim(circuit, tb, cached_config(cache_dir));
      all.push_back(sim.run(seu).counts());
    }
    {
      ParallelFaultSimulator sim(circuit, tb, cached_config(cache_dir));
      all.push_back(sim.run_mbu(mbu).counts);
    }
    {
      ParallelFaultSimulator sim(circuit, tb, cached_config(cache_dir));
      all.push_back(sim.run_set(set).counts);
    }
    {
      ParallelFaultSimulator sim(circuit, tb, cached_config(cache_dir));
      all.push_back(sim.run_stuckat(stuckat).counts);
    }
    return all;
  };
  const std::vector<ClassCounts> cold = counts_with(dir);   // misses + store
  const std::vector<ClassCounts> warm = counts_with(dir);   // all hits
  const std::vector<ClassCounts> none = counts_with("");    // cache off
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].failure, cold[i].failure) << "model " << i;
    EXPECT_EQ(warm[i].latent, cold[i].latent) << "model " << i;
    EXPECT_EQ(warm[i].silent, cold[i].silent) << "model " << i;
    EXPECT_EQ(none[i].failure, cold[i].failure) << "model " << i;
    EXPECT_EQ(none[i].latent, cold[i].latent) << "model " << i;
    EXPECT_EQ(none[i].silent, cold[i].silent) << "model " << i;
  }
}

TEST(ArtifactCache, CacheKeyMatchesEngineAndBundleMatchesRebuild) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-key");
  const CampaignConfig config = cached_config(dir);
  ParallelFaultSimulator cold(circuit, tb, config);  // stores the entry

  const ArtifactCacheKey key = engine_key(circuit, tb);
  ArtifactLoadResult loaded = load_artifacts(dir, key, circuit);
  ASSERT_EQ(loaded.status, ArtifactCacheStatus::kHit) << loaded.detail;

  // Deserialized artifacts equal a from-scratch rebuild, bit for bit.
  const GoldenTrace golden = capture_golden(circuit, tb.vectors());
  EXPECT_EQ(loaded.bundle.golden.states, golden.states);
  EXPECT_EQ(loaded.bundle.golden.outputs, golden.outputs);

  ASSERT_NE(loaded.bundle.opt_kernel, nullptr);
  const auto opt = optimize_kernel(compile_kernel(circuit), {});
  EXPECT_EQ(loaded.bundle.opt_kernel->num_slots(), opt->num_slots());
  const auto a = loaded.bundle.opt_kernel->program();
  const auto b = opt->program();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dest, b[i].dest) << i;
    EXPECT_EQ(a[i].a, b[i].a) << i;
    EXPECT_EQ(a[i].b, b[i].b) << i;
    EXPECT_EQ(a[i].c, b[i].c) << i;
    EXPECT_EQ(a[i].op, b[i].op) << i;
    EXPECT_EQ(a[i].neg, b[i].neg) << i;
  }
  EXPECT_EQ(loaded.bundle.opt_kernel->opt_stats().opt_instrs,
            opt->opt_stats().opt_instrs);
}

// ---- degradation flavors ---------------------------------------------------

/// Reruns the campaign against a tampered entry and checks it degrades to a
/// warned rebuild with unchanged grading.
void expect_degraded_rebuild(const Circuit& circuit, const Testbench& tb,
                             const std::string& dir,
                             const char* expected_warning) {
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());
  CampaignConfig no_cache;
  ParallelFaultSimulator reference(circuit, tb, no_cache);
  const ClassCounts expected = reference.run(faults).counts();

  ::testing::internal::CaptureStderr();
  ParallelFaultSimulator sim(circuit, tb, cached_config(dir));
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find(expected_warning), std::string::npos) << warnings;
  EXPECT_EQ(sim.telemetry_snapshot().cache_hits, 0u);
  EXPECT_EQ(sim.telemetry_snapshot().cache_misses, 1u);
  const ClassCounts counts = sim.run(faults).counts();
  EXPECT_EQ(counts.failure, expected.failure);
  EXPECT_EQ(counts.latent, expected.latent);
  EXPECT_EQ(counts.silent, expected.silent);
}

TEST(ArtifactCache, CorruptByteDegradesToWarnedRebuild) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-corrupt");
  ParallelFaultSimulator cold(circuit, tb, cached_config(dir));

  const fs::path entry = only_entry(dir);
  std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(entry) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(fs::file_size(entry) / 2));
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();

  expect_degraded_rebuild(circuit, tb, dir, "corrupt");
}

TEST(ArtifactCache, TruncationDegradesToWarnedRebuild) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-truncated");
  ParallelFaultSimulator cold(circuit, tb, cached_config(dir));

  const fs::path entry = only_entry(dir);
  fs::resize_file(entry, fs::file_size(entry) / 2);
  expect_degraded_rebuild(circuit, tb, dir, "corrupt");
}

TEST(ArtifactCache, VersionSkewDegradesToWarnedRebuild) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-version");
  ParallelFaultSimulator cold(circuit, tb, cached_config(dir));

  // Bump the format version (first u32 of the payload, after the 8-byte
  // magic) and reseal — the checksum gate runs first, so a naive patch
  // would read as corruption, not skew.
  patch_and_reseal(only_entry(dir), [](std::vector<char>& blob) {
    std::uint32_t version = 0;
    std::memcpy(&version, blob.data() + 8, sizeof version);
    ++version;
    std::memcpy(blob.data() + 8, &version, sizeof version);
  });
  expect_degraded_rebuild(circuit, tb, dir, "version-skew");
}

TEST(ArtifactCache, ResealedHugeTraceCountDegradesToWarnedRebuild) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-huge-count");
  ParallelFaultSimulator cold(circuit, tb, cached_config(dir));

  // The golden trace's state count follows the magic, the u32 version and
  // the four u64 key hashes. A checksum-valid 2^61 there must be bounded by
  // the payload, not handed to resize().
  const fs::path entry = only_entry(dir);
  constexpr std::size_t kStatesCountAt = 8 + 4 + 4 * 8;
  patch_and_reseal(entry, [](std::vector<char>& blob) {
    std::uint64_t count = 0;
    std::memcpy(&count, blob.data() + kStatesCountAt, sizeof count);
    EXPECT_EQ(count, 25u);  // 24 cycles -> 25 states
    count = std::uint64_t{1} << 61;
    std::memcpy(blob.data() + kStatesCountAt, &count, sizeof count);
  });
  const ArtifactLoadResult loaded =
      load_artifacts(dir, engine_key(circuit, tb), circuit);
  EXPECT_EQ(loaded.status, ArtifactCacheStatus::kCorrupt) << loaded.detail;
  expect_degraded_rebuild(circuit, tb, dir, "corrupt");
}

TEST(ArtifactCache, ForeignFingerprintDegradesToWarnedRebuild) {
  const Circuit circuit = build_revision(7, 0);
  const Circuit other = build_revision(7, 1);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-foreign");
  const std::string other_dir = fresh_dir("cache-foreign-other");
  ParallelFaultSimulator cold(circuit, tb, cached_config(dir));
  ParallelFaultSimulator other_cold(other, tb, cached_config(other_dir));

  // Plant the other revision's (internally consistent, correctly
  // checksummed) entry under this circuit's entry name: only the embedded
  // key comparison can catch it.
  fs::copy_file(only_entry(other_dir), only_entry(dir),
                fs::copy_options::overwrite_existing);
  expect_degraded_rebuild(circuit, tb, dir, "fingerprint-mismatch");
}

TEST(ArtifactCache, NetlistEditMissesStaleEntryAndStoresFresh) {
  const Circuit rev0 = build_revision(7, 0);
  const Circuit rev1 = build_revision(7, 1);
  const Testbench tb = random_testbench(rev0.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-stale");

  ParallelFaultSimulator first(rev0, tb, cached_config(dir));
  EXPECT_EQ(first.telemetry_snapshot().cache_misses, 1u);

  // The edited revision's structure hash names a different entry — the
  // stale one is simply never consulted (miss, rebuild, second store).
  const auto faults = complete_fault_list(rev1.num_dffs(), tb.num_cycles());
  CampaignConfig no_cache;
  ParallelFaultSimulator reference(rev1, tb, no_cache);
  const ClassCounts expected = reference.run(faults).counts();

  ParallelFaultSimulator edited(rev1, tb, cached_config(dir));
  EXPECT_EQ(edited.telemetry_snapshot().cache_hits, 0u);
  EXPECT_EQ(edited.telemetry_snapshot().cache_misses, 1u);
  const ClassCounts counts = edited.run(faults).counts();
  EXPECT_EQ(counts.failure, expected.failure);
  EXPECT_EQ(counts.latent, expected.latent);
  EXPECT_EQ(counts.silent, expected.silent);
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 2u);

  // And rev1's warm twin hits its own fresh entry.
  ParallelFaultSimulator warm(rev1, tb, cached_config(dir));
  EXPECT_EQ(warm.telemetry_snapshot().cache_hits, 1u);
}

TEST(ArtifactCache, MissingDirectoryIsAPlainMiss) {
  const Circuit circuit = build_revision(7, 0);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const std::string dir = fresh_dir("cache-never-created");

  ::testing::internal::CaptureStderr();
  ParallelFaultSimulator sim(circuit, tb, cached_config(dir));
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(warnings.empty()) << warnings;  // plain miss never warns
  EXPECT_EQ(sim.telemetry_snapshot().cache_misses, 1u);
  EXPECT_TRUE(fs::exists(dir));  // the store created it
}

}  // namespace
}  // namespace femu
