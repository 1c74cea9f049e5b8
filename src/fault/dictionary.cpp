#include "fault/dictionary.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "fault/journal.h"
#include "fault/parallel_faultsim.h"
#include "sim/event_sim.h"

namespace femu {

namespace {

constexpr char kDictMagic[8] = {'F', 'E', 'M', 'U', 'D', 'I', 'C', 'T'};
constexpr std::uint32_t kDictVersion = 1;

std::uint64_t fault_key(const Fault& fault) {
  return (static_cast<std::uint64_t>(fault.cycle) << 32) | fault.ff_index;
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  std::memcpy(out.data() + at, &v, sizeof v);
}

template <typename T>
void take(const std::vector<std::uint8_t>& in, std::size_t& pos, T& v) {
  FEMU_CHECK(in.size() - pos >= sizeof v, "dictionary file truncated");
  std::memcpy(&v, in.data() + pos, sizeof v);
  pos += sizeof v;
}

}  // namespace

FaultDictionary FaultDictionary::build(const Circuit& circuit,
                                       const Testbench& testbench,
                                       std::span<const Fault> faults) {
  FaultDictionary dict;

  // Grade everything in bulk first; only failures need syndromes.
  ParallelFaultSimulator grader(circuit, testbench);
  const CampaignResult graded = grader.run(faults);
  dict.golden_outputs_ = grader.golden().outputs;

  // Re-simulate each failure up to its detection cycle to capture the
  // syndrome (event-driven: the disturbed cone is small).
  EventSimulator sim(circuit);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultOutcome& outcome = graded.outcomes()[i];
    if (outcome.cls != FaultClass::kFailure) {
      continue;
    }
    const Fault& fault = faults[i];
    sim.set_state(grader.golden().states[fault.cycle]);
    sim.flip_state_bit(fault.ff_index);
    BitVec syndrome;
    for (std::size_t t = fault.cycle; t <= outcome.detect_cycle; ++t) {
      BitVec out = sim.eval(testbench.vector(t));
      if (t == outcome.detect_cycle) {
        out ^= dict.golden_outputs_[t];
        syndrome = std::move(out);
        break;
      }
      sim.step();
    }
    FEMU_CHECK(syndrome.any(), "dictionary: empty syndrome for failure at ff=",
               fault.ff_index, " c=", fault.cycle);
    const FaultSignature sig{outcome.detect_cycle, syndrome.hash()};
    dict.index_[Key{sig.detect_cycle, sig.syndrome_hash}].push_back(fault);
    dict.per_fault_[fault_key(fault)] = sig;
    ++dict.entries_;
  }
  return dict;
}

FaultDictionary FaultDictionary::build_compiled(const Circuit& circuit,
                                               const Testbench& testbench,
                                               std::span<const Fault> faults,
                                               const CampaignConfig& config) {
  ParallelFaultSimulator grader(circuit, testbench, config);
  grader.set_capture_signatures(true);
  const CampaignResult graded = grader.run(faults);
  return from_campaign(faults, graded.outcomes(), grader.last_run_signatures(),
                       grader.golden().outputs);
}

FaultDictionary FaultDictionary::from_campaign(
    std::span<const Fault> faults, std::span<const FaultOutcome> outcomes,
    std::span<const std::uint64_t> signature_hashes,
    std::vector<BitVec> golden_outputs) {
  FEMU_CHECK(outcomes.size() == faults.size(),
             "dictionary: outcome count != fault count");
  FEMU_CHECK(signature_hashes.size() == faults.size(),
             "dictionary: signature count != fault count (was signature "
             "capture enabled?)");
  FaultDictionary dict;
  dict.golden_outputs_ = std::move(golden_outputs);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (outcomes[i].cls != FaultClass::kFailure) {
      continue;
    }
    const FaultSignature sig{outcomes[i].detect_cycle, signature_hashes[i]};
    dict.index_[Key{sig.detect_cycle, sig.syndrome_hash}].push_back(faults[i]);
    dict.per_fault_[fault_key(faults[i])] = sig;
    ++dict.entries_;
  }
  return dict;
}

void FaultDictionary::save(std::ostream& out) const {
  std::vector<std::uint8_t> payload;
  put(payload, kDictVersion);

  put(payload, static_cast<std::uint64_t>(golden_outputs_.size()));
  for (const BitVec& v : golden_outputs_) {
    put(payload, static_cast<std::uint64_t>(v.size()));
    const std::span<const std::uint64_t> words = v.words();
    put(payload, static_cast<std::uint64_t>(words.size()));
    for (const std::uint64_t w : words) {
      put(payload, w);
    }
  }

  // Entries in fault-key order: the byte stream is deterministic regardless
  // of unordered_map iteration order.
  std::vector<std::pair<std::uint64_t, FaultSignature>> entries(
      per_fault_.begin(), per_fault_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  put(payload, static_cast<std::uint64_t>(entries.size()));
  for (const auto& [key, sig] : entries) {
    put(payload, static_cast<std::uint32_t>(key & 0xffffffffu));  // ff_index
    put(payload, static_cast<std::uint32_t>(key >> 32));          // cycle
    put(payload, sig.detect_cycle);
    put(payload, sig.syndrome_hash);
  }

  Fnv64 h;
  h.bytes(payload.data(), payload.size());
  put(payload, h.digest());

  out.write(kDictMagic, sizeof kDictMagic);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  FEMU_CHECK(out.good(), "dictionary: stream write failed");
}

void FaultDictionary::save_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FEMU_CHECK(out.good(), "dictionary: cannot create ", tmp);
    save(out);
    out.flush();
    FEMU_CHECK(out.good(), "dictionary: write to ", tmp, " failed");
  }
  FEMU_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "dictionary: cannot move ", tmp, " into place at ", path);
}

FaultDictionary FaultDictionary::load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof magic);
  FEMU_CHECK(in.good() && std::memcmp(magic, kDictMagic, sizeof magic) == 0,
             "dictionary: bad file magic");
  std::vector<std::uint8_t> payload(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  FEMU_CHECK(payload.size() >= 8, "dictionary file truncated");

  const std::size_t body = payload.size() - 8;
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, payload.data() + body, 8);
  Fnv64 h;
  h.bytes(payload.data(), body);
  FEMU_CHECK(h.digest() == stored_checksum, "dictionary: checksum mismatch");
  payload.resize(body);

  std::size_t pos = 0;
  std::uint32_t version = 0;
  take(payload, pos, version);
  FEMU_CHECK(version == kDictVersion, "dictionary: format v", version,
             ", expected v", kDictVersion);

  // Every count is bounded by the bytes left before it sizes anything, so a
  // corrupt (checksum-resealed) count fails as a femu::Error instead of
  // driving a giant allocation.
  const auto remaining = [&] { return payload.size() - pos; };
  FaultDictionary dict;
  std::uint64_t num_outputs = 0;
  take(payload, pos, num_outputs);
  FEMU_CHECK(num_outputs <= remaining() / (2 * sizeof(std::uint64_t)),
             "dictionary: output count ", num_outputs, " exceeds the file");
  dict.golden_outputs_.reserve(num_outputs);
  for (std::uint64_t i = 0; i < num_outputs; ++i) {
    std::uint64_t bits = 0;
    std::uint64_t words = 0;
    take(payload, pos, bits);
    take(payload, pos, words);
    FEMU_CHECK(words <= remaining() / sizeof(std::uint64_t) &&
                   words == (bits + 63) / 64 && bits <= words * 64,
               "dictionary: bad bit-vector shape");
    BitVec v(bits);
    for (std::uint64_t w = 0; w < words; ++w) {
      std::uint64_t word = 0;
      take(payload, pos, word);
      for (std::uint64_t b = 0; b < 64 && w * 64 + b < bits; ++b) {
        if ((word >> b) & 1u) {
          v.set(w * 64 + b, true);
        }
      }
    }
    dict.golden_outputs_.push_back(std::move(v));
  }

  // One entry: ff_index, cycle, detect cycle (u32 each), syndrome hash.
  constexpr std::size_t kEntryBytes = 3 * sizeof(std::uint32_t) +
                                      sizeof(std::uint64_t);
  std::uint64_t num_entries = 0;
  take(payload, pos, num_entries);
  FEMU_CHECK(num_entries <= remaining() / kEntryBytes,
             "dictionary: entry count ", num_entries, " exceeds the file");
  for (std::uint64_t i = 0; i < num_entries; ++i) {
    Fault fault;
    FaultSignature sig;
    take(payload, pos, fault.ff_index);
    take(payload, pos, fault.cycle);
    take(payload, pos, sig.detect_cycle);
    take(payload, pos, sig.syndrome_hash);
    dict.index_[Key{sig.detect_cycle, sig.syndrome_hash}].push_back(fault);
    dict.per_fault_[fault_key(fault)] = sig;
    ++dict.entries_;
  }
  FEMU_CHECK(pos == payload.size(), "dictionary: trailing bytes");
  return dict;
}

FaultDictionary FaultDictionary::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FEMU_CHECK(in.good(), "dictionary: cannot open ", path);
  return load(in);
}

std::vector<Fault> FaultDictionary::lookup(const FaultSignature& sig) const {
  const auto it = index_.find(Key{sig.detect_cycle, sig.syndrome_hash});
  return it == index_.end() ? std::vector<Fault>{} : it->second;
}

std::vector<Fault> FaultDictionary::diagnose(
    std::span<const BitVec> observed_outputs) const {
  const std::size_t cycles =
      std::min(observed_outputs.size(), golden_outputs_.size());
  for (std::size_t t = 0; t < cycles; ++t) {
    if (observed_outputs[t] == golden_outputs_[t]) {
      continue;
    }
    BitVec syndrome = observed_outputs[t];
    syndrome ^= golden_outputs_[t];
    return lookup(
        FaultSignature{static_cast<std::uint32_t>(t), syndrome.hash()});
  }
  return {};
}

FaultSignature FaultDictionary::signature_of(const Fault& fault) const {
  const auto it = per_fault_.find(fault_key(fault));
  return it == per_fault_.end() ? FaultSignature{} : it->second;
}

double FaultDictionary::resolution() const {
  if (entries_ == 0) {
    return 1.0;
  }
  return static_cast<double>(index_.size()) / static_cast<double>(entries_);
}

}  // namespace femu
