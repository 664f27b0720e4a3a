// The DISSEM listing version: a sender stamps a new version exactly when
// its (normal, ninfo) differs from its previous send, and a receiver that
// gets the version it last merged from that sender skips the merge and the
// competitor rebuild — and nothing else.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "slpdas/das/protocol.hpp"
#include "slpdas/sim/radio.hpp"
#include "test_util.hpp"

namespace slpdas::das {
namespace {

using Listing = std::vector<std::pair<wsn::NodeId, NodeInfo>>;

/// Node 0 of the test line: broadcasts scripted DISSEMs at fixed instants.
class ListingInjector final : public sim::Process {
 public:
  struct Send {
    sim::SimTime at;
    DissemMessage message;
  };

  explicit ListingInjector(std::vector<Send> sends) : sends_(std::move(sends)) {}
  void on_start() override {
    for (std::size_t i = 0; i < sends_.size(); ++i) {
      set_timer(static_cast<int>(i), sends_[i].at);
    }
  }
  void on_timer(int timer_id) override {
    broadcast(std::make_shared<DissemMessage>(
        sends_[static_cast<std::size_t>(timer_id)].message));
  }
  void on_message(wsn::NodeId, const sim::Message&) override {}

 private:
  std::vector<Send> sends_;
};

class Silent final : public sim::Process {
 public:
  void on_message(wsn::NodeId, const sim::Message&) override {}
};

/// The receiver under test, with its Ninfo table readable.
class Receiver final : public ProtectionlessDas {
 public:
  using ProtectionlessDas::info_of;
  using ProtectionlessDas::ProtectionlessDas;
};

DissemMessage listing(std::uint32_t version, wsn::NodeId parent,
                      mac::SlotId slot_of_2) {
  DissemMessage message;
  message.sender = 0;
  message.parent = parent;
  message.version = version;
  message.ninfo = {{0, NodeInfo{1, 50}}, {1, NodeInfo{}},
                   {2, NodeInfo{2, slot_of_2}}};
  return message;
}

/// Everything the receiver exposes, to compare two runs.
struct Snapshot {
  mac::SlotId slot;
  int hop;
  wsn::NodeId parent;
  std::vector<wsn::NodeId> potential_parents;
  std::vector<wsn::NodeId> children;
  std::vector<wsn::NodeId> neighbors;
  std::vector<NodeInfo> ninfo;
  std::uint64_t sent;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Line 0 - 1 - 2: the injector at 0, the receiver at 1 (sink 2, which
/// stays silent). Every delivery succeeds.
class RepeatNet {
 public:
  explicit RepeatNet(std::vector<ListingInjector::Send> sends)
      : graph_(3, {{0, 1}, {1, 2}}),
        simulator_(graph_, sim::make_ideal_radio(), 5) {
    simulator_.add_process(0, std::make_unique<ListingInjector>(std::move(sends)));
    simulator_.add_process(1, std::make_unique<Receiver>(config(), 2, 0));
    simulator_.add_process(2, std::make_unique<Silent>());
  }

  [[nodiscard]] static DasConfig config() { return DasConfig{}; }
  /// `offset` into period `period`: after the period's own timers.
  [[nodiscard]] static sim::SimTime at(int period, sim::SimTime offset =
                                                       sim::kMillisecond) {
    return period * config().period() + offset;
  }

  void run_until(sim::SimTime end) { simulator_.run_until(end); }
  [[nodiscard]] const Receiver& receiver() const {
    return dynamic_cast<const Receiver&>(simulator_.process(1));
  }
  [[nodiscard]] Snapshot snapshot() const {
    const Receiver& r = receiver();
    return Snapshot{r.slot(),
                    r.hop(),
                    r.parent(),
                    {r.potential_parents().begin(), r.potential_parents().end()},
                    {r.children().begin(), r.children().end()},
                    r.known_neighbors(),
                    {r.info_of(0), r.info_of(1), r.info_of(2)},
                    simulator_.traffic(1).sent};
  }

 private:
  wsn::Graph graph_;
  sim::Simulator simulator_;
};

Snapshot run_to_period_9(std::vector<ListingInjector::Send> sends) {
  RepeatNet net(std::move(sends));
  net.run_until(RepeatNet::at(9, 0));
  return net.snapshot();
}

TEST(DissemRepeatTest, RepeatedVersionEndsInTheStateOfOneMerge) {
  const DissemMessage first = listing(1, wsn::kNoNode, 40);
  const Snapshot once = run_to_period_9({{RepeatNet::at(5), first}});
  const Snapshot twice = run_to_period_9(
      {{RepeatNet::at(5), first}, {RepeatNet::at(6), first}});
  EXPECT_EQ(once, twice);
  // The merge did happen: the receiver took node 0 as parent, learned
  // node 2 and disseminated.
  EXPECT_EQ(once.parent, 0);
  EXPECT_TRUE(once.ninfo[2] == (NodeInfo{2, 40}));
  EXPECT_GT(once.sent, 0u);
}

TEST(DissemRepeatTest, RepeatedVersionSkipsTheMerge) {
  // A listing that changed under an unchanged version (no sender does
  // this) shows the skip: the second copy's Ninfo is never read.
  const Snapshot state = run_to_period_9(
      {{RepeatNet::at(5), listing(1, wsn::kNoNode, 40)},
       {RepeatNet::at(6), listing(1, wsn::kNoNode, 30)}});
  EXPECT_TRUE(state.ninfo[2] == (NodeInfo{2, 40}));
}

TEST(DissemRepeatTest, MissedVersionStillMergesTheNext) {
  // Version 2 never arrives; version 3 is not the version last merged.
  const Snapshot state = run_to_period_9(
      {{RepeatNet::at(5), listing(1, wsn::kNoNode, 40)},
       {RepeatNet::at(6), listing(3, wsn::kNoNode, 30)}});
  EXPECT_TRUE(state.ninfo[2] == (NodeInfo{2, 30}));
}

TEST(DissemRepeatTest, RepeatNamingUsAsParentStillRecordsTheChild) {
  RepeatNet net({{RepeatNet::at(5), listing(1, wsn::kNoNode, 40)},
                 {RepeatNet::at(6), listing(1, /*parent=*/1, 40)},
                 {RepeatNet::at(7), listing(1, wsn::kNoNode, 40)}});
  net.run_until(RepeatNet::at(6, 0));
  EXPECT_TRUE(net.receiver().children().empty());
  net.run_until(RepeatNet::at(7, 0));
  EXPECT_EQ(net.snapshot().children, std::vector<wsn::NodeId>{0});
  net.run_until(RepeatNet::at(8, 0));
  EXPECT_TRUE(net.receiver().children().empty());
}

/// Watches every DISSEM on the medium: per sender, consecutive sends
/// share a version iff they share (normal, ninfo), and versions count up
/// from 1 by one per change.
class VersionAuditor final : public sim::TransmissionObserver {
 public:
  void on_transmission(wsn::NodeId from, const sim::Message& message,
                       sim::SimTime) override {
    if (message.name() != DissemMessage::kName) {
      return;
    }
    const auto& dissem = static_cast<const DissemMessage&>(message);
    ++sends;
    auto [it, first] = last_.try_emplace(from, dissem);
    if (first) {
      EXPECT_EQ(dissem.version, 1u) << "node " << from;
      return;
    }
    const DissemMessage& previous = it->second;
    const bool same = previous.normal == dissem.normal &&
                      previous.ninfo == dissem.ninfo;
    repeats += same ? 1 : 0;
    EXPECT_EQ(dissem.version, previous.version + (same ? 0 : 1))
        << "node " << from;
    it->second = dissem;
  }

  std::uint64_t sends = 0;
  std::uint64_t repeats = 0;

 private:
  std::map<wsn::NodeId, DissemMessage> last_;
};

TEST(DissemRepeatTest, SendersVersionExactlyTheListingChanges) {
  for (const bool slp : {false, true}) {
    SCOPED_TRACE(slp ? "slp-das" : "protectionless");
    test::TestNet net =
        slp ? test::make_slp_net(wsn::make_grid(7), test::fast_parameters(), 3,
                                 sim::make_casino_lab_noise())
            : test::make_protectionless_net(wsn::make_grid(7),
                                            test::fast_parameters(), 3,
                                            sim::make_casino_lab_noise());
    VersionAuditor auditor;
    net.simulator->add_observer(&auditor);
    test::run_setup(net);
    // Both kinds occur: DT re-sends unchanged listings, news changes them.
    EXPECT_GT(auditor.repeats, 0u);
    EXPECT_LT(auditor.repeats, auditor.sends);
  }
}

}  // namespace
}  // namespace slpdas::das
