// Crash-safe campaign journal: fingerprint semantics, record round trips,
// valid-prefix recovery of torn tails, graceful degradation on corrupt or
// mismatched journals, resume bit-identity across thread counts, and a real
// SIGKILL-mid-campaign kill-and-resume check.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/journal.h"
#include "fault/parallel_faultsim.h"
#include "stim/generate.h"

#ifdef __unix__
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

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

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---- fingerprint -----------------------------------------------------------

TEST(Fingerprint, StableAcrossEngineKnobsSensitiveToContent) {
  const Circuit c = random_circuit(41);
  const Testbench tb = random_testbench(c.num_inputs(), 48, 7);
  const auto faults = complete_fault_list(c.num_dffs(), 48);

  const CampaignFingerprint fp = campaign_fingerprint(c, tb, faults);
  EXPECT_EQ(fp, campaign_fingerprint(c, tb, faults));  // deterministic

  // A renamed circuit is the same campaign — names are cosmetic.
  Circuit renamed = random_circuit(41);
  renamed.rename("other-name");
  EXPECT_EQ(campaign_fingerprint(renamed, tb, faults).circuit, fp.circuit);

  // Different structure, stimulus or fault list each move exactly their
  // component.
  const Circuit other = random_circuit(42);
  EXPECT_NE(campaign_fingerprint(other, tb, faults).circuit, fp.circuit);

  const Testbench other_tb = random_testbench(c.num_inputs(), 48, 8);
  const CampaignFingerprint fp_tb = campaign_fingerprint(c, other_tb, faults);
  EXPECT_NE(fp_tb.testbench, fp.testbench);
  EXPECT_EQ(fp_tb.circuit, fp.circuit);

  auto fewer = faults;
  fewer.pop_back();
  EXPECT_NE(campaign_fingerprint(c, tb, fewer).faults, fp.faults);

  // Different fault model, same circuit/tb: the model component moves.
  const std::vector<StuckAtFault> sa{{3, true}};
  EXPECT_NE(campaign_fingerprint(c, tb, std::span<const StuckAtFault>(sa))
                .model,
            fp.model);
}

// ---- journal file round trip and damage handling ---------------------------

TEST(Journal, WriteReadRoundTrip) {
  const std::string path = temp_path("femu_journal_roundtrip.jrnl");
  remove_journal(path);
  const CampaignFingerprint fp{1, 2, 3, 4, 5};

  {
    CampaignJournalWriter writer(path, fp, /*fault_count=*/10,
                                 /*with_signatures=*/true);
    const std::vector<std::uint32_t> idx{2, 5, 7};
    const std::vector<FaultOutcome> outs{
        {FaultClass::kFailure, 9, kNoCycle},
        {FaultClass::kSilent, kNoCycle, 4},
        {FaultClass::kLatent, kNoCycle, kNoCycle},
    };
    const std::vector<std::uint64_t> sigs{0x1111u, 0u, 0u};
    writer.append(idx, outs, sigs);
    writer.mark_complete();
  }

  const JournalContents loaded = load_journal(path, fp, 10);
  EXPECT_EQ(loaded.status, JournalStatus::kOk);
  EXPECT_TRUE(loaded.complete);
  EXPECT_FALSE(loaded.truncated);
  EXPECT_TRUE(loaded.has_signatures);
  EXPECT_EQ(loaded.num_known, 3u);
  EXPECT_TRUE(loaded.have[2] && loaded.have[5] && loaded.have[7]);
  EXPECT_FALSE(loaded.have[0]);
  EXPECT_EQ(loaded.outcomes[2].cls, FaultClass::kFailure);
  EXPECT_EQ(loaded.outcomes[2].detect_cycle, 9u);
  EXPECT_EQ(loaded.signatures[2], 0x1111u);
  EXPECT_EQ(loaded.outcomes[5].converge_cycle, 4u);
  remove_journal(path);
}

TEST(Journal, TornTailRecoversValidPrefix) {
  const std::string path = temp_path("femu_journal_torn.jrnl");
  remove_journal(path);
  const CampaignFingerprint fp{1, 2, 3, 4, 5};
  {
    CampaignJournalWriter writer(path, fp, 10, false);
    const std::vector<std::uint32_t> idx{0};
    const std::vector<FaultOutcome> outs{{FaultClass::kSilent, kNoCycle, 2}};
    writer.append(idx, outs, {});
    const std::vector<std::uint32_t> idx2{1};
    writer.append(idx2, outs, {});
  }
  // Tear the last record mid-way — what a SIGKILL during a write leaves.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(in.tellg());
  in.close();
  // On-disk truncate by rewriting the prefix.
  {
    std::ifstream full(path, std::ios::binary);
    std::vector<char> bytes(static_cast<std::size_t>(size) - 7);
    full.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    full.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const JournalContents loaded = load_journal(path, fp, 10);
  EXPECT_EQ(loaded.status, JournalStatus::kOk);
  EXPECT_TRUE(loaded.truncated);
  EXPECT_FALSE(loaded.complete);
  EXPECT_EQ(loaded.num_known, 1u);  // first record survives, torn one dropped
  EXPECT_TRUE(loaded.have[0]);
  EXPECT_FALSE(loaded.have[1]);
  remove_journal(path);
}

TEST(Journal, CorruptByteDropsTailNeverLies) {
  const std::string path = temp_path("femu_journal_corrupt.jrnl");
  remove_journal(path);
  const CampaignFingerprint fp{1, 2, 3, 4, 5};
  {
    CampaignJournalWriter writer(path, fp, 10, false);
    const std::vector<FaultOutcome> outs{{FaultClass::kSilent, kNoCycle, 2}};
    for (std::uint32_t i = 0; i < 4; ++i) {
      const std::vector<std::uint32_t> idx{i};
      writer.append(idx, outs, {});
    }
  }
  // Flip a byte inside the third group record's payload: its checksum fails,
  // so that record and everything after it must be dropped — but never
  // misread.
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(0, std::ios::end);
  const auto size = static_cast<long>(file.tellg());
  file.seekp(size - 30);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(size - 30);
  byte = static_cast<char>(byte ^ 0x5a);
  file.write(&byte, 1);
  file.close();

  const JournalContents loaded = load_journal(path, fp, 10);
  EXPECT_EQ(loaded.status, JournalStatus::kOk);
  EXPECT_TRUE(loaded.truncated);
  EXPECT_LT(loaded.num_known, 4u);
  for (std::size_t i = 0; i < loaded.have.size(); ++i) {
    if (loaded.have[i]) {
      EXPECT_EQ(loaded.outcomes[i].cls, FaultClass::kSilent);
      EXPECT_EQ(loaded.outcomes[i].converge_cycle, 2u);
    }
  }
  remove_journal(path);
}

TEST(Journal, HeaderDamageAndMismatchAreDiagnosed) {
  const std::string path = temp_path("femu_journal_header.jrnl");
  remove_journal(path);
  const CampaignFingerprint fp{1, 2, 3, 4, 5};
  { CampaignJournalWriter writer(path, fp, 10, false); }

  // Missing file.
  EXPECT_EQ(load_journal(path + ".nope", fp, 10).status,
            JournalStatus::kMissing);

  // Wrong campaign: the detail must name the differing component.
  CampaignFingerprint other = fp;
  other.testbench ^= 1;
  const JournalContents mismatch = load_journal(path, other, 10);
  EXPECT_EQ(mismatch.status, JournalStatus::kFingerprintMismatch);
  EXPECT_NE(mismatch.detail.find("testbench"), std::string::npos);

  // Wrong fault count is a mismatch too.
  EXPECT_EQ(load_journal(path, fp, 11).status,
            JournalStatus::kFingerprintMismatch);

  // Garbage file magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "THIS IS NOT A JOURNAL AT ALL";
  }
  EXPECT_EQ(load_journal(path, fp, 10).status, JournalStatus::kCorrupt);
  remove_journal(path);
}

// ---- journaled campaigns ---------------------------------------------------

class JournaledCampaign : public ::testing::TestWithParam<unsigned> {};

TEST_P(JournaledCampaign, FreshRunMatchesPlainCampaignAndCompletes) {
  const Circuit c = random_circuit(51);
  const Testbench tb = random_testbench(c.num_inputs(), 48, 7);
  const auto faults = complete_fault_list(c.num_dffs(), 48);
  const std::string path = temp_path("femu_journal_fresh.jrnl");
  remove_journal(path);

  CampaignConfig config;
  config.num_threads = GetParam();
  ParallelFaultSimulator reference(c, tb, config);
  const CampaignResult want = reference.run(faults);

  ParallelFaultSimulator sim(c, tb, config);
  sim.set_capture_signatures(true);
  const JournaledCampaignReport report =
      run_journaled_seu_campaign(sim, faults, path, /*resume=*/true);
  EXPECT_TRUE(report.warning.empty());
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.graded, faults.size());
  ASSERT_EQ(report.result.outcomes(), want.outcomes());

  // The finished journal replays completely: zero faults re-graded.
  ParallelFaultSimulator sim2(c, tb, config);
  sim2.set_capture_signatures(true);
  const JournaledCampaignReport again =
      run_journaled_seu_campaign(sim2, faults, path, /*resume=*/true);
  EXPECT_TRUE(again.warning.empty());
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.replayed, faults.size());
  EXPECT_EQ(again.graded, 0u);
  EXPECT_EQ(again.result.outcomes(), want.outcomes());
  EXPECT_EQ(again.signatures, report.signatures);
  remove_journal(path);
}

TEST_P(JournaledCampaign, PartialJournalResumesBitIdentical) {
  const Circuit c = random_circuit(52);
  const Testbench tb = random_testbench(c.num_inputs(), 48, 9);
  const auto faults = complete_fault_list(c.num_dffs(), 48);
  const std::string path = temp_path(
      (std::string("femu_journal_partial_") +
       std::to_string(GetParam()) + ".jrnl")
          .c_str());
  remove_journal(path);

  CampaignConfig config;
  config.num_threads = GetParam();
  ParallelFaultSimulator reference(c, tb, config);
  reference.set_capture_signatures(true);
  const JournaledCampaignReport full =
      run_journaled_seu_campaign(reference, faults, path, /*resume=*/false);

  // Rebuild the journal keeping only every third fault — a synthetic
  // mid-campaign snapshot.
  const CampaignFingerprint fp = campaign_fingerprint(c, tb, faults);
  JournalContents partial = load_journal(path, fp, faults.size());
  ASSERT_EQ(partial.status, JournalStatus::kOk);
  partial.num_known = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    partial.have[i] = (i % 3 == 0) ? 1 : 0;
    partial.num_known += partial.have[i];
  }
  { CampaignJournalWriter rebuild(path, fp, faults.size(), true, &partial); }

  ParallelFaultSimulator sim(c, tb, config);
  sim.set_capture_signatures(true);
  const JournaledCampaignReport resumed =
      run_journaled_seu_campaign(sim, faults, path, /*resume=*/true);
  EXPECT_TRUE(resumed.warning.empty());
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.replayed, partial.num_known);
  EXPECT_EQ(resumed.graded, faults.size() - partial.num_known);
  EXPECT_EQ(resumed.result.outcomes(), full.result.outcomes());
  EXPECT_EQ(resumed.signatures, full.signatures);
  remove_journal(path);
}

INSTANTIATE_TEST_SUITE_P(Threads, JournaledCampaign,
                         ::testing::Values(1u, 4u));

TEST(JournaledCampaignDegrade, CorruptJournalWarnsAndRerunsFully) {
  const Circuit c = random_circuit(53, /*gates=*/140, /*dffs=*/12);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 3);
  const auto faults = complete_fault_list(c.num_dffs(), 32);
  const std::string path = temp_path("femu_journal_degrade.jrnl");
  remove_journal(path);

  ParallelFaultSimulator reference(c, tb);
  const CampaignResult want = reference.run(faults);

  // Not even a journal file.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage bytes";
  }
  ParallelFaultSimulator sim(c, tb);
  const JournaledCampaignReport report =
      run_journaled_seu_campaign(sim, faults, path, /*resume=*/true);
  EXPECT_FALSE(report.warning.empty());
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.graded, faults.size());
  EXPECT_EQ(report.result.outcomes(), want.outcomes());

  // A journal for a *different* campaign (other stimulus seed).
  const Testbench other_tb = random_testbench(c.num_inputs(), 32, 4);
  ParallelFaultSimulator other_sim(c, other_tb);
  (void)run_journaled_seu_campaign(other_sim, faults, path, false);

  ParallelFaultSimulator sim2(c, tb);
  const JournaledCampaignReport mismatched =
      run_journaled_seu_campaign(sim2, faults, path, /*resume=*/true);
  EXPECT_NE(mismatched.warning.find("testbench"), std::string::npos);
  EXPECT_FALSE(mismatched.resumed);
  EXPECT_EQ(mismatched.result.outcomes(), want.outcomes());
  remove_journal(path);
}

TEST(JournaledCampaignDegrade, SignaturelessJournalWithCaptureRequired) {
  const Circuit c = random_circuit(54, /*gates=*/140, /*dffs=*/12);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 3);
  const auto faults = complete_fault_list(c.num_dffs(), 32);
  const std::string path = temp_path("femu_journal_nosig.jrnl");
  remove_journal(path);

  // Journal written without signatures...
  ParallelFaultSimulator plain(c, tb);
  (void)run_journaled_seu_campaign(plain, faults, path, false);

  // ...cannot serve a resume that needs them: warned full re-run.
  ParallelFaultSimulator capturing(c, tb);
  capturing.set_capture_signatures(true);
  const JournaledCampaignReport report =
      run_journaled_seu_campaign(capturing, faults, path, /*resume=*/true);
  EXPECT_NE(report.warning.find("signature"), std::string::npos);
  EXPECT_EQ(report.graded, faults.size());
  remove_journal(path);
}

// ---- kill-and-resume -------------------------------------------------------

#ifdef __unix__
TEST(JournalKillResumeTest, SigkilledCampaignResumesBitIdentical) {
  const Circuit c = random_circuit(55, /*gates=*/300, /*dffs=*/24);
  const Testbench tb = random_testbench(c.num_inputs(), 96, 13);
  const auto faults = complete_fault_list(c.num_dffs(), 96);
  const std::string path = temp_path("femu_journal_kill.jrnl");
  remove_journal(path);

  CampaignConfig config;
  config.num_threads = 2;
  ParallelFaultSimulator reference(c, tb, config);
  const CampaignResult want = reference.run(faults);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: journaled campaign slowed to a crawl so the parent can SIGKILL
    // it mid-flight (the observer runs after each batch's journal append).
    ParallelFaultSimulator sim(c, tb, config);
    const auto slow = [](std::span<const std::uint32_t>,
                         std::span<const FaultOutcome>,
                         std::span<const std::uint64_t>) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    (void)run_journaled_seu_campaign(sim, faults, path, false, slow);
    _exit(0);  // not expected to be reached
  }

  // Parent: wait until at least a few group records hit the disk, then kill.
  long size = 0;
  for (int spins = 0; spins < 2000; ++spins) {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    size = probe ? static_cast<long>(probe.tellg()) : 0;
    if (size > 400) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_GT(size, 0) << "campaign never wrote a journal before the kill";

  // Resume: everything already retired replays from disk, the rest re-runs,
  // and the merge equals the uninterrupted reference bit for bit.
  ParallelFaultSimulator sim(c, tb, config);
  const JournaledCampaignReport resumed =
      run_journaled_seu_campaign(sim, faults, path, /*resume=*/true);
  EXPECT_EQ(resumed.result.outcomes(), want.outcomes());
  if (size > 400) {
    EXPECT_TRUE(resumed.resumed);
    EXPECT_GT(resumed.replayed, 0u);
    EXPECT_LT(resumed.graded, faults.size());
  }
  remove_journal(path);
}
#endif  // __unix__

}  // namespace
}  // namespace femu
