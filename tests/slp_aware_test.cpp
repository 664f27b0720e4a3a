// Tests for the Definition 5 (strong/weak SLP-aware DAS) checker.
#include "slpdas/verify/slp_aware.hpp"

#include <gtest/gtest.h>

#include "slpdas/das/centralized.hpp"
#include "slpdas/slp/slp_das.hpp"
#include "slpdas/wsn/topology.hpp"
#include "test_util.hpp"

namespace slpdas::verify {
namespace {

using mac::Schedule;

/// Y-shape: sink 0, real branch 0-1-2 (source 2), decoy branch 0-3-4.
struct YFixture {
  wsn::Graph graph{5, {{0, 1}, {1, 2}, {0, 3}, {3, 4}}};
  Schedule baseline{5};
  Schedule decoyed{5};
  VerifyAttacker attacker;

  YFixture() {
    // Baseline: the real branch fires earliest -> captured in 2 periods.
    baseline.set_slot(0, 10);
    baseline.set_slot(1, 4);
    baseline.set_slot(2, 3);
    baseline.set_slot(3, 8);
    baseline.set_slot(4, 7);
    // Decoyed: the decoy branch undercuts the real branch.
    decoyed = baseline;
    decoyed.set_slot(3, 2);
    decoyed.set_slot(4, 1);
    attacker.start = 0;
  }
};

TEST(SlpAwareTest, DecoyedScheduleIsWeakSlpAware) {
  const YFixture f;
  const auto result = check_slp_aware_das(f.graph, f.decoyed, f.baseline,
                                          f.attacker, 2, 0, 50);
  EXPECT_TRUE(result.candidate_is_weak_das);
  ASSERT_TRUE(result.baseline_capture_period.has_value());
  EXPECT_EQ(*result.baseline_capture_period, 2);
  EXPECT_FALSE(result.candidate_capture_period.has_value());  // parked
  EXPECT_TRUE(result.delays_attacker());
  EXPECT_TRUE(result.weak_slp_aware());
}

TEST(SlpAwareTest, BaselineAgainstItselfIsNotSlpAware) {
  const YFixture f;
  const auto result = check_slp_aware_das(f.graph, f.baseline, f.baseline,
                                          f.attacker, 2, 0, 50);
  EXPECT_FALSE(result.delays_attacker());
  EXPECT_FALSE(result.weak_slp_aware());
  EXPECT_FALSE(result.strong_slp_aware());
}

TEST(SlpAwareTest, InvalidDasCannotBeSlpAware) {
  YFixture f;
  // An unassigned non-sink node breaks Definition 3 condition 2.
  test::clear_slot(f.decoyed, 1);
  const auto result = check_slp_aware_das(f.graph, f.decoyed, f.baseline,
                                          f.attacker, 2, 0, 50);
  EXPECT_FALSE(result.candidate_is_weak_das);
  EXPECT_FALSE(result.weak_slp_aware());
}

TEST(SlpAwareTest, NeitherCapturedMeansNotAware) {
  // If even the baseline never captures, the candidate cannot STRICTLY
  // delay the attacker (Def 5 cond 2 is a strict inequality).
  YFixture f;
  f.baseline.set_slot(3, 2);  // baseline also diverts
  f.baseline.set_slot(4, 1);
  const auto result = check_slp_aware_das(f.graph, f.decoyed, f.baseline,
                                          f.attacker, 2, 0, 50);
  EXPECT_FALSE(result.baseline_capture_period.has_value());
  EXPECT_FALSE(result.candidate_capture_period.has_value());
  EXPECT_FALSE(result.delays_attacker());
}

TEST(SlpAwareTest, ToStringIsInformative) {
  const YFixture f;
  const auto result = check_slp_aware_das(f.graph, f.decoyed, f.baseline,
                                          f.attacker, 2, 0, 50);
  const std::string text = result.to_string();
  // The Y fixture's decoyed schedule happens to satisfy strong DAS too.
  EXPECT_NE(text.find("DAS"), std::string::npos);
  EXPECT_NE(text.find("weak-SLP-aware: yes"), std::string::npos);
  EXPECT_NE(text.find("no capture"), std::string::npos);
}

TEST(SlpAwareTest, EndToEndProtocolComparison) {
  // Definition 5 evaluated on the actual protocol outputs: SLP DAS run vs
  // protectionless run from the same seed. Across a small seed sweep, at
  // least one seed must yield a weak-SLP-aware schedule, and no seed may
  // yield a candidate that is not a weak DAS.
  // Definition 5's condition 2 is a STRICT inequality, so only seeds where
  // the baseline attacker actually captures are discriminating.
  const core::Parameters params = test::fast_parameters(30);
  int aware = 0;
  int baseline_captures = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto base_net =
        test::make_protectionless_net(wsn::make_grid(7), params, seed);
    test::run_setup(base_net);
    auto slp_net = test::make_slp_net(wsn::make_grid(7), params, seed);
    test::run_setup(slp_net);
    const auto baseline = das::extract_schedule(*base_net.simulator);
    const auto candidate = das::extract_schedule(*slp_net.simulator);
    ASSERT_TRUE(baseline.complete() && candidate.complete());
    VerifyAttacker attacker;
    attacker.start = base_net.topology.sink;
    const auto result = check_slp_aware_das(
        base_net.topology.graph, candidate, baseline, attacker,
        base_net.topology.source, base_net.topology.sink, 500);
    EXPECT_TRUE(result.candidate_is_weak_das) << "seed " << seed;
    if (result.baseline_capture_period.has_value()) {
      ++baseline_captures;
      aware += result.weak_slp_aware() ? 1 : 0;
    }
  }
  if (baseline_captures == 0) {
    GTEST_SKIP() << "no seed produced a capturing baseline";
  }
  EXPECT_GE(aware, 1);
}

}  // namespace
}  // namespace slpdas::verify
