#include "fault/artifact_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "fault/journal.h"

namespace femu {

namespace {

constexpr char kFileMagic[8] = {'F', 'E', 'M', 'U', 'A', 'R', 'T', '\0'};
constexpr std::uint32_t kArtifactVersion = 3;

using Payload = std::vector<std::uint8_t>;

template <typename T>
void put(Payload& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  std::memcpy(out.data() + at, &v, sizeof v);
}

template <typename T>
void put_vec(Payload& out, std::span<const T> v) {
  put<std::uint64_t>(out, v.size());
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(T));
  if (!v.empty()) {  // an empty vector's data() may be null
    std::memcpy(out.data() + at, v.data(), v.size() * sizeof(T));
  }
}

void put_bitvec(Payload& out, const BitVec& v) {
  put<std::uint64_t>(out, v.size());
  const std::span<const std::uint64_t> words = v.words();
  const std::size_t at = out.size();
  out.resize(at + words.size() * sizeof(std::uint64_t));
  std::memcpy(out.data() + at, words.data(),
              words.size() * sizeof(std::uint64_t));
}

/// Bounds-checked cursor over the loaded payload — every take fails soft
/// (the degradation contract forbids throwing on bad content).
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] bool take(void* out, std::size_t len) {
    if (size - pos < len) {
      return false;
    }
    if (len == 0) {
      return true;  // `out` may be an empty vector's null data()
    }
    std::memcpy(out, data + pos, len);
    pos += len;
    return true;
  }
  template <typename T>
  [[nodiscard]] bool get(T& v) {
    return take(&v, sizeof v);
  }
  /// Length-prefixed POD vector; the length is implicitly bounded by the
  /// remaining payload, so a corrupt count can never drive a giant alloc.
  template <typename T>
  [[nodiscard]] bool get_vec(std::vector<T>& out) {
    std::uint64_t n = 0;
    if (!get(n) || n > (size - pos) / sizeof(T)) {
      return false;
    }
    out.resize(static_cast<std::size_t>(n));
    return take(out.data(), out.size() * sizeof(T));
  }
  [[nodiscard]] bool get_bitvec(BitVec& out) {
    std::uint64_t bits = 0;
    if (!get(bits) || bits / 64 > (size - pos) / sizeof(std::uint64_t)) {
      return false;
    }
    const std::size_t words =
        (static_cast<std::size_t>(bits) + 63) / BitVec::kWordBits;
    scratch_words.resize(words);
    if (!take(scratch_words.data(), words * sizeof(std::uint64_t))) {
      return false;
    }
    const std::size_t tail = bits % BitVec::kWordBits;
    if (tail != 0 && words != 0 &&
        (scratch_words.back() >> tail) != 0) {
      return false;  // junk beyond size() — a well-formed writer masks it
    }
    out.assign_words(static_cast<std::size_t>(bits), scratch_words);
    return true;
  }
  std::vector<std::uint64_t> scratch_words{};
};

void put_trace(Payload& out, const GoldenTrace& trace) {
  put<std::uint64_t>(out, trace.states.size());
  for (const BitVec& v : trace.states) put_bitvec(out, v);
  put<std::uint64_t>(out, trace.outputs.size());
  for (const BitVec& v : trace.outputs) put_bitvec(out, v);
}

/// Reads one length-prefixed BitVec list. Every BitVec takes at least its
/// u64 size prefix, so the count is bounded by the remaining payload before
/// it sizes anything — a corrupt count can never drive a giant alloc.
[[nodiscard]] bool take_count(Reader& r, std::uint64_t& n) {
  return r.get(n) && n <= (r.size - r.pos) / sizeof(std::uint64_t);
}

[[nodiscard]] bool take_trace(Reader& r, const Circuit& circuit,
                              GoldenTrace& trace) {
  std::uint64_t n = 0;
  if (!take_count(r, n)) return false;
  trace.states.resize(static_cast<std::size_t>(n));
  for (BitVec& v : trace.states) {
    if (!r.get_bitvec(v) || v.size() != circuit.num_dffs()) return false;
  }
  if (!take_count(r, n)) return false;
  trace.outputs.resize(static_cast<std::size_t>(n));
  for (BitVec& v : trace.outputs) {
    if (!r.get_bitvec(v) || v.size() != circuit.num_outputs()) return false;
  }
  return trace.states.size() == trace.outputs.size() + 1;
}

}  // namespace

/// Friend of CompiledKernel: the only code that reads or rebuilds its
/// private representation for serialization.
struct ArtifactCacheAccess {
  static void save_kernel(Payload& out, const CompiledKernel& k) {
    put<std::uint64_t>(out, k.num_slots_);
    put<std::uint64_t>(out, k.program_.size());
    for (const CompiledKernel::Instr& in : k.program_) {
      // Field-wise (the struct has tail padding, which would leak
      // indeterminate bytes into the checksum).
      put<std::uint32_t>(out, in.dest);
      put<std::uint32_t>(out, in.a);
      put<std::uint32_t>(out, in.b);
      put<std::uint32_t>(out, in.c);
      put<std::uint8_t>(out, static_cast<std::uint8_t>(in.op));
      put<std::uint8_t>(out, in.neg);
    }
    put_vec<std::uint32_t>(out, k.input_slots_);
    put_vec<std::uint32_t>(out, k.dff_slots_);
    put_vec<std::uint32_t>(out, k.dff_d_slots_);
    put_vec<std::uint32_t>(out, k.output_slots_);
    put_vec<std::uint32_t>(out, k.const1_slots_);
    put<std::uint64_t>(out, k.opt_stats_.raw_instrs);
    put<std::uint64_t>(out, k.opt_stats_.opt_instrs);
    put<std::uint64_t>(out, k.opt_stats_.absorbed);
    put<std::uint64_t>(out, k.opt_stats_.folded);
    put<std::uint64_t>(out, k.opt_stats_.dead);
    put<std::uint64_t>(out, k.opt_stats_.preserved);
  }

  [[nodiscard]] static bool load_kernel(
      Reader& r, const Circuit& circuit,
      std::shared_ptr<const CompiledKernel>& out) {
    std::shared_ptr<CompiledKernel> k(new CompiledKernel());
    std::uint64_t num_slots = 0;
    std::uint64_t n_instr = 0;
    if (!r.get(num_slots) || num_slots != circuit.node_count() ||
        !r.get(n_instr) || n_instr > num_slots) {
      return false;
    }
    k->num_slots_ = static_cast<std::size_t>(num_slots);
    k->program_.resize(static_cast<std::size_t>(n_instr));
    for (CompiledKernel::Instr& in : k->program_) {
      std::uint8_t op = 0;
      if (!r.get(in.dest) || !r.get(in.a) || !r.get(in.b) || !r.get(in.c) ||
          !r.get(op) || !r.get(in.neg) || in.dest >= num_slots ||
          in.a >= num_slots || in.b >= num_slots || in.c >= num_slots) {
        return false;
      }
      in.op = static_cast<CellType>(op);
    }
    const auto bounded = [&](const std::vector<std::uint32_t>& v,
                             std::size_t expect) {
      if (v.size() != expect) return false;
      for (const std::uint32_t s : v) {
        if (s >= num_slots) return false;
      }
      return true;
    };
    if (!r.get_vec(k->input_slots_) ||
        !bounded(k->input_slots_, circuit.num_inputs()) ||
        !r.get_vec(k->dff_slots_) ||
        !bounded(k->dff_slots_, circuit.num_dffs()) ||
        !r.get_vec(k->dff_d_slots_) ||
        !bounded(k->dff_d_slots_, circuit.num_dffs()) ||
        !r.get_vec(k->output_slots_) ||
        !bounded(k->output_slots_, circuit.num_outputs()) ||
        !r.get_vec(k->const1_slots_) ||
        !bounded(k->const1_slots_, k->const1_slots_.size())) {
      return false;
    }
    std::uint64_t stats[6];
    for (std::uint64_t& s : stats) {
      if (!r.get(s)) return false;
    }
    k->opt_stats_ = {static_cast<std::size_t>(stats[0]),
                     static_cast<std::size_t>(stats[1]),
                     static_cast<std::size_t>(stats[2]),
                     static_cast<std::size_t>(stats[3]),
                     static_cast<std::size_t>(stats[4]),
                     static_cast<std::size_t>(stats[5])};
    k->circuit_ = &circuit;
    out = std::move(k);
    return true;
  }

};

std::uint64_t ArtifactCacheKey::combined() const {
  Fnv64 h;
  h.str("artifact-cache:v1");
  h.u64(circuit);
  h.u64(testbench);
  h.u64(config_rule);
  h.u64(optimizer);
  return h.digest();
}

std::string ArtifactCacheKey::file_name() const {
  char buf[40];
  std::snprintf(buf, sizeof buf, "femu-%016llx.artifact",
                static_cast<unsigned long long>(combined()));
  return buf;
}

std::uint64_t optimizer_pipeline_hash() {
  Fnv64 h;
  // Bump the tag whenever an optimizer pass changes codegen: a cached
  // optimized kernel from an older pipeline must read as a different key.
  h.str("kernel-opt:absorb-fold-dce:v1");
  return h.digest();
}

const char* artifact_cache_status_name(ArtifactCacheStatus s) noexcept {
  switch (s) {
    case ArtifactCacheStatus::kHit:
      return "hit";
    case ArtifactCacheStatus::kMiss:
      return "miss";
    case ArtifactCacheStatus::kCorrupt:
      return "corrupt";
    case ArtifactCacheStatus::kVersionSkew:
      return "version-skew";
    case ArtifactCacheStatus::kMismatch:
      return "fingerprint-mismatch";
  }
  return "unknown";
}

ArtifactLoadResult load_artifacts(const std::string& dir,
                                  const ArtifactCacheKey& key,
                                  const Circuit& circuit) {
  ArtifactLoadResult res;
  const std::string path = dir + "/" + key.file_name();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return res;  // kMiss — a cold cache is not a fault
  }
  const std::streamoff file_size = in.tellg();
  std::vector<std::uint8_t> blob(
      file_size > 0 ? static_cast<std::size_t>(file_size) : 0);
  in.seekg(0);
  if (!blob.empty() &&
      !in.read(reinterpret_cast<char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()))) {
    blob.clear();  // short read → the checks below flag it as corrupt
  }
  in.close();
  res.bytes = blob.size();

  const auto corrupt = [&](const char* why) {
    res.status = ArtifactCacheStatus::kCorrupt;
    res.detail = std::string(why) + " (" + path + ")";
    return std::move(res);
  };
  if (blob.size() < sizeof kFileMagic + sizeof(std::uint32_t) +
                        4 * sizeof(std::uint64_t) + sizeof(std::uint64_t) ||
      std::memcmp(blob.data(), kFileMagic, sizeof kFileMagic) != 0) {
    return corrupt("bad magic or truncated entry");
  }
  const std::size_t payload_size =
      blob.size() - sizeof kFileMagic - sizeof(std::uint64_t);
  const std::uint8_t* payload = blob.data() + sizeof kFileMagic;
  Fnv64 sum;
  sum.bytes(payload, payload_size);
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, payload + payload_size, sizeof stored_sum);
  if (sum.digest() != stored_sum) {
    return corrupt("checksum mismatch");
  }

  Reader r{payload, payload_size};
  std::uint32_t version = 0;
  if (!r.get(version)) {
    return corrupt("truncated header");
  }
  if (version != kArtifactVersion) {
    res.status = ArtifactCacheStatus::kVersionSkew;
    res.detail = "entry format v" + std::to_string(version) + ", expected v" +
                 std::to_string(kArtifactVersion) + " (" + path + ")";
    return res;
  }
  ArtifactCacheKey embedded;
  if (!r.get(embedded.circuit) || !r.get(embedded.testbench) ||
      !r.get(embedded.config_rule) || !r.get(embedded.optimizer)) {
    return corrupt("truncated key");
  }
  if (embedded != key) {
    const char* culprit =
        embedded.circuit != key.circuit       ? "circuit structure"
        : embedded.testbench != key.testbench ? "testbench content"
        : embedded.config_rule != key.config_rule ? "config rule tag"
                                                  : "optimizer pipeline";
    res.status = ArtifactCacheStatus::kMismatch;
    res.detail = std::string("entry keyed for different ") + culprit + " (" +
                 path + ")";
    return res;
  }

  ArtifactBundle& b = res.bundle;
  if (!take_trace(r, circuit, b.golden)) {
    return corrupt("malformed golden-trace section");
  }
  if (!ArtifactCacheAccess::load_kernel(r, circuit, b.opt_kernel)) {
    return corrupt("malformed optimized-kernel section");
  }
  if (r.pos != r.size) {
    return corrupt("trailing bytes after last section");
  }
  res.status = ArtifactCacheStatus::kHit;
  return res;
}

ArtifactStoreResult store_artifacts(const std::string& dir,
                                    const ArtifactCacheKey& key,
                                    const ArtifactStoreView& view) {
  ArtifactStoreResult res;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    res.detail = "cannot create cache dir " + dir + ": " + ec.message();
    return res;
  }

  Payload payload;
  put<std::uint32_t>(payload, kArtifactVersion);
  put<std::uint64_t>(payload, key.circuit);
  put<std::uint64_t>(payload, key.testbench);
  put<std::uint64_t>(payload, key.config_rule);
  put<std::uint64_t>(payload, key.optimizer);

  put_trace(payload, *view.golden);
  ArtifactCacheAccess::save_kernel(payload, *view.opt_kernel);

  Fnv64 sum;
  sum.bytes(payload.data(), payload.size());
  const std::uint64_t digest = sum.digest();

  const std::string path = dir + "/" + key.file_name();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      res.detail = "cannot open " + tmp;
      return res;
    }
    out.write(kFileMagic, sizeof kFileMagic);
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char*>(&digest), sizeof digest);
    out.flush();
    if (!out) {
      res.detail = "short write to " + tmp;
      return res;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    res.detail = "rename " + tmp + " -> " + path + " failed";
    return res;
  }
  res.stored = true;
  res.bytes = sizeof kFileMagic + payload.size() + sizeof digest;
  return res;
}

}  // namespace femu
