#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"

namespace femu {

// ---- persistent content-addressed artifact cache ---------------------------
//
// Every campaign over the same (circuit, testbench) recomputes the same
// setup artifacts: the golden trace and the FF-model optimized kernel.
// Neither depends on the fault list or on any engine knob — the same
// invariance contract the journal's CampaignFingerprint encodes. This cache persists them on disk
// keyed by content hashes, so the hardening-loop pattern — near-identical
// campaigns in a tight loop — pays setup once.
//
// Key derivation (vs CampaignFingerprint): the `circuit`, `testbench` and
// `config` (rule tag) components are the exact journal hashes; the `faults`
// and `model` components are deliberately DROPPED (no setup artifact depends
// on them), and one cache-only component is added: the optimizer
// pass-pipeline hash. Engine knobs (lanes, threads) stay excluded, matching
// the journal's outcome-invariance contract, so a load either supplies
// everything construction needs or nothing.
//
// On-disk format (FaultDictionary-style, host-endian, one file per key):
//
//   8-byte magic "FEMUART\0", then the payload:
//     u32 format version
//     the four key hashes (u64 each)
//     golden trace        — states then outputs, as length-prefixed BitVecs
//     the FF-model optimized kernel — dims + instruction stream + index
//       tables + OptStats
//   u64 FNV-1a checksum over the payload
//
// Stores write `<file>.tmp` then atomically rename, so a crash can never
// leave a torn entry under a valid name. Loads NEVER throw on bad content:
// corrupt bytes, truncation, a version skew or a foreign fingerprint all
// degrade to a warned miss (status + detail) and the caller rebuilds — the
// same totally-degrading contract as load_journal.

/// Content-addressed cache key; combined() names the entry file.
struct ArtifactCacheKey {
  std::uint64_t circuit = 0;    ///< circuit_structure_hash
  std::uint64_t testbench = 0;  ///< testbench_content_hash
  std::uint64_t config_rule = 0;  ///< campaign_config_rule_hash
  std::uint64_t optimizer = 0;  ///< optimizer_pipeline_hash

  friend bool operator==(const ArtifactCacheKey&,
                         const ArtifactCacheKey&) = default;

  /// FNV-1a over the four components — the content address.
  [[nodiscard]] std::uint64_t combined() const;

  /// Entry file name inside the cache dir: "femu-<combined hex>.artifact".
  [[nodiscard]] std::string file_name() const;
};

/// Hash of the kernel-optimizer pass pipeline the cached FF-model kernel
/// (empty preserve set) was built under. Bump its version tag when a pass
/// changes codegen.
[[nodiscard]] std::uint64_t optimizer_pipeline_hash();

enum class ArtifactCacheStatus : std::uint8_t {
  kHit,          ///< entry validated and adopted
  kMiss,         ///< no entry (nothing to warn about)
  kCorrupt,      ///< bad magic/checksum/truncation — rebuilt
  kVersionSkew,  ///< entry from another format version — rebuilt
  kMismatch,     ///< entry keyed for different content — rebuilt
};

[[nodiscard]] const char* artifact_cache_status_name(
    ArtifactCacheStatus s) noexcept;

/// Deserialized setup artifacts, ready for the engine to adopt.
struct ArtifactBundle {
  GoldenTrace golden;
  std::shared_ptr<const CompiledKernel> opt_kernel;
};

struct ArtifactLoadResult {
  ArtifactCacheStatus status = ArtifactCacheStatus::kMiss;
  std::string detail;        ///< what degraded (empty on hit/plain miss)
  std::uint64_t bytes = 0;   ///< entry size read (0 on miss)
  ArtifactBundle bundle;     ///< populated only on kHit
};

/// Loads and validates the entry for `key` from `dir`. The embedded key is
/// checked against `key` component-wise (a foreign fingerprint names the
/// culprit in `detail`), every section is bounds-checked, and the
/// reconstructed kernel is re-bound to `circuit` after a node-count check.
/// Never throws on bad content — see the degradation contract above.
[[nodiscard]] ArtifactLoadResult load_artifacts(const std::string& dir,
                                                const ArtifactCacheKey& key,
                                                const Circuit& circuit);

/// Non-owning view of the artifacts one construction produced; both are
/// required.
struct ArtifactStoreView {
  const GoldenTrace* golden = nullptr;
  const CompiledKernel* opt_kernel = nullptr;
};

struct ArtifactStoreResult {
  bool stored = false;
  std::uint64_t bytes = 0;  ///< entry size written (0 on failure)
  std::string detail;       ///< why the store failed (never fatal)
};

/// Serializes `view` to `dir` (created if missing) under `key`'s file name
/// via tmp + atomic rename. I/O failure degrades to stored=false + detail —
/// a cache store must never fail a campaign.
[[nodiscard]] ArtifactStoreResult store_artifacts(const std::string& dir,
                                                  const ArtifactCacheKey& key,
                                                  const ArtifactStoreView& view);

}  // namespace femu
