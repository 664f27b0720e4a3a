// Tests for the attacker decision functions and parameter validation
// (paper Figure 1).
#include "slpdas/attacker/model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace slpdas::attacker {
namespace {

const std::vector<HeardMessage> kMessages{
    {.sender = 7, .sender_slot = 12},
    {.sender = 3, .sender_slot = 4},
    {.sender = 9, .sender_slot = 30},
};

TEST(DecideTest, NothingHeardMeansStayForEveryDecision) {
  Rng rng(1);
  for (const Decision decision : kDecisions) {
    SCOPED_TRACE(to_string(decision));
    EXPECT_EQ(decide(decision, {}, {3, 7}, rng), wsn::kNoNode);
  }
}

TEST(DecideTest, FirstHeardPicksFirstMessage) {
  Rng rng(1);
  EXPECT_EQ(decide(Decision::kFirstHeard, kMessages, {}, rng), 7);
}

TEST(DecideTest, MinSlotPicksEarliestTransmitter) {
  Rng rng(1);
  EXPECT_EQ(decide(Decision::kMinSlot, kMessages, {}, rng), 3);
}

TEST(DecideTest, MinSlotTieBreaksById) {
  Rng rng(1);
  const std::vector<HeardMessage> tie{{.sender = 9, .sender_slot = 4},
                                      {.sender = 3, .sender_slot = 4}};
  EXPECT_EQ(decide(Decision::kMinSlot, tie, {}, rng), 3);
}

TEST(DecideTest, HistoryAvoidingSkipsVisitedLocations) {
  Rng rng(1);
  // 3 avoided, next-min is 7.
  EXPECT_EQ(decide(Decision::kHistoryAvoiding, kMessages, {3}, rng), 7);
  // Nothing visited: plain min-slot.
  EXPECT_EQ(decide(Decision::kHistoryAvoiding, kMessages, {}, rng), 3);
}

TEST(DecideTest, HistoryAvoidingFallsBackWhenAllVisited) {
  Rng rng(1);
  // Min slot of everything.
  EXPECT_EQ(decide(Decision::kHistoryAvoiding, kMessages, {3, 7, 9}, rng), 3);
}

TEST(DecideTest, RandomOnlyReturnsHeardSenders) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto choice = decide(Decision::kRandom, kMessages, {}, rng);
    EXPECT_TRUE(choice == 7 || choice == 3 || choice == 9);
  }
}

TEST(DecideTest, RandomEventuallyPicksEveryone) {
  Rng rng(6);
  std::set<wsn::NodeId> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(decide(Decision::kRandom, kMessages, {}, rng));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(DecideTest, OnlyRandomDrawsFromTheRng) {
  for (const Decision decision : kDecisions) {
    SCOPED_TRACE(to_string(decision));
    Rng used(11);
    Rng untouched(11);
    (void)decide(decision, kMessages, {3}, used);
    EXPECT_EQ(used() != untouched(), decision == Decision::kRandom);
  }
}

TEST(DecisionNameTest, NamesRoundTrip) {
  const std::set<std::string> expected{"first-heard", "min-slot",
                                       "history-avoiding", "random"};
  std::set<std::string> names;
  for (const Decision decision : kDecisions) {
    const std::string name = to_string(decision);
    names.insert(name);
    EXPECT_EQ(parse_decision(name), decision) << name;
  }
  EXPECT_EQ(names, expected);
  EXPECT_EQ(parse_decision("random-choice"), std::nullopt);
  EXPECT_EQ(parse_decision(""), std::nullopt);
}

TEST(AttackerParamsTest, Validation) {
  AttackerParams params;
  params.start = 0;
  EXPECT_NO_THROW(params.validate());
  EXPECT_EQ(params.decision, Decision::kFirstHeard);

  AttackerParams bad;
  bad.messages_per_move = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.history_size = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.moves_per_period = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace slpdas::attacker
