// Word512 lane tier: trait algebra, the runtime SIMD dispatch, and
// cycle-exact agreement of the 512-lane engine with the 64-lane one.
// Campaigns at both widths are checked by the differential harness
// (test_campaign_diff.cpp); the *Slow* suite runs its b14 MBU cases.

#include <gtest/gtest.h>

#include <cstring>

#include "campaign_diff.h"
#include "circuits/registry.h"
#include "sim/compiled_kernel.h"
#include "sim/simd_dispatch.h"
#include "stim/generate.h"

namespace femu {
namespace {

using T512 = LaneTraits<Word512>;

// ---- lane traits -----------------------------------------------------------

TEST(Word512Test, TraitAlgebra) {
  EXPECT_EQ(T512::kLanes, 512u);
  EXPECT_EQ(sizeof(Word512), 64u);
  EXPECT_EQ(alignof(Word512), 64u);
  EXPECT_FALSE(T512::any(T512::zero()));
  EXPECT_TRUE(T512::any(T512::ones()));
  EXPECT_EQ(T512::count(T512::ones()), 512u);
  EXPECT_EQ(T512::count(T512::first_n(300)), 300u);
  EXPECT_EQ(T512::first_n(512), T512::ones());
  EXPECT_EQ(T512::first_n(0), T512::zero());
  for (const unsigned lane : {0u, 63u, 64u, 255u, 256u, 300u, 511u}) {
    const Word512 bit = T512::lane_bit(lane);
    EXPECT_EQ(T512::count(bit), 1u);
    EXPECT_TRUE(T512::test(bit, lane));
    EXPECT_FALSE(T512::test(bit, (lane + 1) % 512));
    EXPECT_TRUE(T512::test(T512::first_n(lane + 1), lane));
    EXPECT_FALSE(T512::test(T512::first_n(lane), lane));
  }
  const Word512 a = T512::first_n(100);
  const Word512 b = T512::lane_bit(99);
  EXPECT_EQ(T512::count(a ^ b), 99u);
  EXPECT_EQ(T512::count(a & b), 1u);
  EXPECT_EQ(T512::count(a | b), 100u);
  EXPECT_EQ(T512::count(~a), 412u);
}

TEST(Word512Test, SimdPathIsReported) {
  const char* path = word512_simd_path();
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(std::strcmp(path, "avx512") == 0 ||
              std::strcmp(path, "limbs") == 0)
      << path;
  // The dispatch may never claim the AVX-512 path on a host without it.
  if (std::strcmp(path, "avx512") == 0) {
    EXPECT_TRUE(cpu_has_avx512f());
  }
}

// ---- engine-level agreement ------------------------------------------------

TEST(Word512Test, LaneEngineMatches64LaneEngine) {
  const Circuit c = circuits::build_by_name("b09_like");
  const auto kernel = compile_kernel(c);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 17);
  LaneEngine<std::uint64_t> e64(kernel);
  LaneEngine<Word512> e512(kernel);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    e64.eval(tb.vector(t));
    e512.eval(tb.vector(t));
    EXPECT_TRUE(e64.lane_outputs(0) == e512.lane_outputs(0)) << "cycle " << t;
    EXPECT_TRUE(e64.lane_outputs(0) == e512.lane_outputs(511))
        << "cycle " << t;
    e64.step();
    e512.step();
    EXPECT_TRUE(e64.lane_state(0) == e512.lane_state(300)) << "cycle " << t;
  }
}

// ---- b14 (*Slow* suite) ----------------------------------------------------

TEST(Word512SlowTest, B14MbuCasesAgreeAcrossWidths) {
  EXPECT_EQ(diff::run_b14_cases(1), "");
}

}  // namespace
}  // namespace femu
