// Tests for the radio reception models, including the synthetic
// casino-lab noise process (sim/radio.hpp describes the substitution).
#include "slpdas/sim/radio.hpp"

#include <gtest/gtest.h>

namespace slpdas::sim {
namespace {

TEST(IdealRadioTest, AlwaysDelivers) {
  IdealRadio radio;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(radio.delivered(0, 1, i * kSecond, rng));
  }
}

TEST(LossyRadioTest, LossRateMatchesParameter) {
  LossyRadio radio(0.25);
  Rng rng(2);
  int delivered = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    delivered += radio.delivered(0, 1, 0, rng) ? 1 : 0;
  }
  EXPECT_NEAR(delivered / static_cast<double>(trials), 0.75, 0.02);
}

TEST(LossyRadioTest, ZeroLossDeliversEverything) {
  LossyRadio radio(0.0);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(radio.delivered(0, 1, 0, rng));
  }
}

TEST(LossyRadioTest, InvalidProbabilityRejected) {
  EXPECT_THROW(LossyRadio(-0.1), std::invalid_argument);
  EXPECT_THROW(LossyRadio(1.0), std::invalid_argument);
}

TEST(CasinoLabNoiseTest, InvalidParamsRejected) {
  CasinoLabParams params;
  params.quiet_loss = 1.0;
  EXPECT_THROW(CasinoLabNoise{params}, std::invalid_argument);
  params = {};
  params.mean_burst = 0;
  EXPECT_THROW(CasinoLabNoise{params}, std::invalid_argument);
}

TEST(CasinoLabNoiseTest, QuietFloorIsMostlyDelivered) {
  CasinoLabParams params;
  params.quiet_loss = 0.02;
  params.burst_loss = 0.55;
  CasinoLabNoise radio(params);
  Rng rng(5);
  int delivered = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    // Densely sampled over a long horizon: both states get visited.
    delivered += radio.delivered(0, 1, i * 10 * kMillisecond, rng) ? 1 : 0;
  }
  const double rate = delivered / static_cast<double>(trials);
  // Expected loss = weighted mix of floor and burst loss; with the default
  // 12 s quiet / 1 s burst sojourns that is roughly 2-10% loss overall.
  EXPECT_GT(rate, 0.85);
  EXPECT_LT(rate, 0.99);
}

TEST(CasinoLabNoiseTest, BurstsActuallyHappen) {
  CasinoLabNoise radio{CasinoLabParams{}};
  Rng rng(7);
  bool saw_burst = false;
  for (int i = 0; i < 100000 && !saw_burst; ++i) {
    (void)radio.delivered(0, 1, i * 10 * kMillisecond, rng);
    saw_burst = radio.in_burst();
  }
  EXPECT_TRUE(saw_burst);
}

TEST(CasinoLabNoiseTest, StateAdvancesMonotonically) {
  // Queries at the same timestamp must not re-toggle the chain.
  CasinoLabNoise radio{CasinoLabParams{}};
  Rng rng(9);
  (void)radio.delivered(0, 1, 5 * kSecond, rng);
  const bool state = radio.in_burst();
  for (int i = 0; i < 10; ++i) {
    (void)radio.delivered(0, 1, 5 * kSecond, rng);
    EXPECT_EQ(radio.in_burst(), state);
  }
}

TEST(RadioFactoriesTest, ProduceWorkingModels) {
  Rng rng(11);
  EXPECT_TRUE(make_ideal_radio()->delivered(0, 1, 0, rng));
  auto lossy = make_lossy_radio(0.5);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    delivered += lossy->delivered(0, 1, 0, rng) ? 1 : 0;
  }
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
  EXPECT_NE(make_casino_lab_noise(), nullptr);
}

}  // namespace
}  // namespace slpdas::sim
