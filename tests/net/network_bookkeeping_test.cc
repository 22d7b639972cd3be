// The transport keeps its delivery bookkeeping exact at every mutation: the
// pending and unacked counts, and the index of channels with a non-empty
// queue that delivery picks scan.  These tests drive every path that changes
// a queue or an unacked buffer and, after each step, recount all of it the
// slow way over every channel.  They run under the FIFO, random-walk and
// delay-bounded schedulers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"

namespace bmx {

// Friend of Network: recomputes its bookkeeping from the channel table.
class NetworkAudit {
 public:
  using Key = std::pair<NodeId, NodeId>;

  // The channels a pick may choose from right now — non-empty queue, head
  // deliverable at the current tick — in channel-key order.
  static std::vector<ChannelCandidate> Candidates(const Network& net) {
    std::vector<ChannelCandidate> out;
    for (const auto& [key, channel] : net.channels_) {
      if (channel.queue.empty() || HeadReadyAt(net, channel) > net.now_) {
        continue;
      }
      ChannelCandidate c;
      c.src = key.first;
      c.dst = key.second;
      c.head_kind = channel.queue.front().payload->kind();
      c.queue_len = channel.queue.size();
      c.deferred = channel.deferred;
      out.push_back(c);
    }
    return out;
  }

  static void Check(const Network& net) {
    size_t pending = 0;
    size_t unacked = 0;
    size_t reachable = 0;
    std::vector<Key> non_empty;
    for (const auto& [key, channel] : net.channels_) {
      pending += channel.queue.size();
      unacked += channel.unacked.size();
      if (net.NodeAttached(key.second) && !net.Partitioned(key.first, key.second)) {
        reachable += channel.unacked.size();
      }
      if (!channel.queue.empty()) {
        non_empty.push_back(key);
      }
    }
    EXPECT_EQ(net.PendingCount(), pending);
    EXPECT_EQ(net.UnackedCount(), unacked);
    EXPECT_EQ(net.ReachableUnackedCount(), reachable);
    std::vector<Key> indexed;
    for (const auto& [key, channel] : net.queued_) {
      indexed.push_back(key);
      auto it = net.channels_.find(key);
      ASSERT_NE(it, net.channels_.end());
      EXPECT_EQ(channel, &it->second);
    }
    EXPECT_EQ(indexed, non_empty);
  }

  // Live FIFO only: the channel the next pick returns must be the first
  // non-empty channel whose head is deliverable — after the clock jump to the
  // earliest head when every head is still in flight.
  static void CheckFifoPick(Network& net) {
    uint64_t at = net.now_;
    uint64_t earliest = UINT64_MAX;
    for (const auto& [key, channel] : net.channels_) {
      if (!channel.queue.empty()) {
        earliest = std::min(earliest, HeadReadyAt(net, channel));
      }
    }
    if (earliest != UINT64_MAX && earliest > at) {
      at = earliest;
    }
    const Key* expected = nullptr;
    for (const auto& [key, channel] : net.channels_) {
      if (!channel.queue.empty() && HeadReadyAt(net, channel) <= at) {
        expected = &key;
        break;
      }
    }
    Key got;
    Network::Channel* picked = net.PickDeliveryChannel(&got);
    if (expected == nullptr) {
      EXPECT_EQ(picked, nullptr);
      return;
    }
    ASSERT_NE(picked, nullptr);
    EXPECT_EQ(got, *expected);
    EXPECT_EQ(picked, &net.channels_.at(*expected));
  }

 private:
  static uint64_t HeadReadyAt(const Network& net, const Network::Channel& channel) {
    return net.any_link_latency_ ? channel.queue.front().ready_at : 0;
  }
};

namespace {

struct Probe : public Payload {
  Probe(MsgKind k, bool rel) : k(k), rel(rel) {}
  MsgKind kind() const override { return k; }
  MsgCategory category() const override { return MsgCategory::kDsm; }
  size_t WireSize() const override { return 16; }
  bool reliable() const override { return rel; }
  MsgKind k;
  bool rel;
};

std::shared_ptr<Probe> Reliable() { return std::make_shared<Probe>(MsgKind::kGrant, true); }
std::shared_ptr<Probe> Datagram() {
  return std::make_shared<Probe>(MsgKind::kReachabilityTable, false);
}
// Batchable kinds (src/net/batch.cc), for frames.
std::shared_ptr<Probe> Invalidate() { return std::make_shared<Probe>(MsgKind::kInvalidate, true); }
std::shared_ptr<Probe> Push() { return std::make_shared<Probe>(MsgKind::kObjectPush, true); }
// A reliable kind that never rides a frame and that no DropParked below
// names, so it survives to the replay.
std::shared_ptr<Probe> Request() {
  return std::make_shared<Probe>(MsgKind::kAcquireRequest, true);
}

class Sink : public MessageHandler {
 public:
  void HandleMessage(const Message&) override {}
};

// Checks every candidate list a pick is offered against the recount, then
// defers to the wrapped policy.
class AuditingScheduler : public SchedulerPolicy {
 public:
  AuditingScheduler(std::unique_ptr<SchedulerPolicy> inner, const Network* net)
      : inner_(std::move(inner)), net_(net) {}
  size_t Pick(const std::vector<ChannelCandidate>& candidates) override {
    std::vector<ChannelCandidate> want = NetworkAudit::Candidates(*net_);
    EXPECT_EQ(candidates.size(), want.size());
    for (size_t i = 0; i < std::min(candidates.size(), want.size()); ++i) {
      EXPECT_EQ(candidates[i].src, want[i].src) << "candidate " << i;
      EXPECT_EQ(candidates[i].dst, want[i].dst) << "candidate " << i;
      EXPECT_EQ(candidates[i].head_kind, want[i].head_kind) << "candidate " << i;
      EXPECT_EQ(candidates[i].queue_len, want[i].queue_len) << "candidate " << i;
      EXPECT_EQ(candidates[i].deferred, want[i].deferred) << "candidate " << i;
    }
    picks++;
    return inner_->Pick(candidates);
  }
  const char* name() const override { return inner_->name(); }
  size_t picks = 0;

 private:
  std::unique_ptr<SchedulerPolicy> inner_;
  const Network* net_;
};

enum class Sched { kFifo, kRandomWalk, kDelayBounded };

class NetworkBookkeeping : public ::testing::TestWithParam<Sched> {
 protected:
  void SetUp() override {
    net_.set_batch_policy(BatchPolicy{.enabled = true});
    if (GetParam() == Sched::kRandomWalk) {
      InstallAudit(std::make_unique<RandomWalkScheduler>(11));
    } else if (GetParam() == Sched::kDelayBounded) {
      InstallAudit(std::make_unique<DelayBoundedScheduler>(13, 2));
    }
    for (NodeId n = 1; n <= 4; ++n) {
      net_.RegisterNode(n, &sinks_[n]);
    }
  }

  void InstallAudit(std::unique_ptr<SchedulerPolicy> inner) {
    auto audit = std::make_unique<AuditingScheduler>(std::move(inner), &net_);
    audit_ = audit.get();
    net_.set_scheduler(std::move(audit));
  }

  void Check(const std::string& step) {
    SCOPED_TRACE(step);
    NetworkAudit::Check(net_);
    if (GetParam() == Sched::kFifo) {
      NetworkAudit::CheckFifoPick(net_);
    }
  }

  void Send(NodeId src, NodeId dst, std::shared_ptr<const Payload> payload,
            const std::string& step) {
    net_.Send(src, dst, std::move(payload));
    Check(step);
  }

  // One delivery or timer firing at a time, checked after each, until idle.
  void Drain(const std::string& step) {
    for (int i = 0; i < 100000; ++i) {
      bool moved = net_.DeliverOne() || net_.FireRetransmitTimers();
      Check(step + " #" + std::to_string(i));
      if (!moved) {
        return;
      }
    }
    FAIL() << step << " did not drain";
  }

  Network net_{7};
  Sink sinks_[5];
  AuditingScheduler* audit_ = nullptr;
};

TEST_P(NetworkBookkeeping, CountersAndIndexMatchARecountOnEveryPath) {
  Check("fresh");

  // Send and ack, across several channels, both delivery classes.
  for (int i = 0; i < 3; ++i) {
    Send(1, 2, Reliable(), "send 1->2");
    Send(2, 1, Reliable(), "send 2->1");
    Send(3, 1, Datagram(), "datagram 3->1");
    Send(4, 3, Reliable(), "send 4->3");
  }
  Drain("send/ack");
  EXPECT_EQ(net_.UnackedCount(), 0u);

  // Ack loss, in-flight loss, duplication and reordering: retransmissions
  // re-enter queues that delivery had emptied.
  net_.set_ack_loss_rate(0.5);
  net_.set_reliable_loss_rate(0.3);
  net_.set_duplication_rate(0.3);
  net_.set_reorder_rate(0.3);
  for (int i = 0; i < 6; ++i) {
    Send(1, 2, Reliable(), "lossy 1->2");
    Send(2, 3, Reliable(), "lossy 2->3");
    Send(4, 1, Datagram(), "lossy datagram 4->1");
  }
  Drain("ack loss/retransmit");
  net_.set_ack_loss_rate(0);
  net_.set_reliable_loss_rate(0);
  net_.set_duplication_rate(0);
  net_.set_reorder_rate(0);
  EXPECT_GT(net_.stats().TotalRetransmits(), 0u);

  // A partition holds reliable traffic in unacked, outside the reachable
  // count, until it heals.
  net_.PartitionNodes(1, 2);
  Check("partition");
  Send(1, 2, Reliable(), "partitioned 1->2");
  Send(2, 1, Reliable(), "partitioned 2->1");
  Send(1, 2, Datagram(), "partitioned datagram");
  Send(3, 4, Reliable(), "unpartitioned 3->4");
  Drain("during partition");
  EXPECT_GT(net_.UnackedCount(), 0u);
  EXPECT_EQ(net_.ReachableUnackedCount(), 0u);
  net_.HealPartition(1, 2);
  Check("heal");
  Drain("after heal");
  EXPECT_EQ(net_.UnackedCount(), 0u);

  // Per-link latency: heads wait in flight and the clock jumps to them.
  net_.InstallLinkProfile(1, 3, LinkProfile{.latency_ticks = 5});
  net_.InstallLinkProfile(2, 3, LinkProfile{.latency_ticks = 2});
  Send(1, 3, Reliable(), "slow 1->3");
  Send(1, 3, Reliable(), "slow 1->3");
  Send(2, 3, Reliable(), "slow 2->3");
  Send(4, 3, Reliable(), "fast 4->3");
  Drain("latency");
  net_.ClearLinkProfile(1, 3);
  net_.ClearLinkProfile(2, 3);

  // A crash with traffic queued both ways, then traffic that parks.
  Send(1, 3, Reliable(), "to 3 before crash");
  Send(1, 3, Invalidate(), "batched to 3 before crash");
  Send(3, 1, Reliable(), "from 3 before crash");
  Send(3, 2, Datagram(), "datagram from 3 before crash");
  Send(2, 3, Datagram(), "datagram to 3 before crash");
  net_.DisconnectNode(3);
  Check("disconnect 3");
  Send(2, 3, Reliable(), "to down 3");
  Send(2, 3, Push(), "batched to down 3");
  Drain("park at down 3");
  EXPECT_GT(net_.HeldCount(), 0u);
  // Channel 1->3 already holds parked entries; sends during the outage file
  // above them.
  size_t held = net_.HeldCount();
  for (int i = 0; i < 4; ++i) {
    Send(1, 3, Request(), "to down 3 behind parked");
  }
  Send(1, 3, Push(), "batched to down 3 behind parked");
  Drain("park behind parked");
  EXPECT_EQ(net_.HeldCount(), held + 5);

  // Batch frames parked toward the down node: one mixes two kinds, so a drop
  // of one kind rebuilds it; the other holds only the dropped kind and
  // retires.
  Send(4, 3, Invalidate(), "frame A invalidate");
  Send(4, 3, Push(), "frame A push");
  Drain("park frame A");
  Send(1, 3, Invalidate(), "frame B invalidate");
  Drain("park frame B");
  EXPECT_GT(net_.DropParked(4, 3, MsgKind::kInvalidate), 0u);
  Check("drop from mixed frame");
  EXPECT_GT(net_.DropParked(1, 3, MsgKind::kInvalidate), 0u);
  Check("drop whole frame");
  EXPECT_GT(net_.DropParked(2, 3, MsgKind::kGrant), 0u);
  Check("drop parked grant");
  // A drop while wire copies are still queued removes them too.
  Send(1, 3, Reliable(), "queued to down 3");
  EXPECT_GT(net_.PendingCount(), 0u);
  EXPECT_GT(net_.DropParked(1, 3, MsgKind::kGrant), 0u);
  Check("drop queued copy");
  EXPECT_EQ(net_.PendingCount(), 0u);

  // Re-registration replays what is still parked.
  net_.RegisterNode(3, &sinks_[3]);
  Check("register 3");
  // A second crash while the replay is still queued parks it again.
  EXPECT_GT(net_.PendingCount(), 0u);
  held = net_.HeldCount();
  net_.DisconnectNode(3);
  Check("second crash during replay");
  EXPECT_GT(net_.HeldCount(), held);
  Drain("park replay at down 3");
  net_.RegisterNode(3, &sinks_[3]);
  Check("register 3 again");
  Drain("replay to 3");
  EXPECT_EQ(net_.UnackedCount(), 0u);
  EXPECT_GT(net_.stats().TotalRedelivered(), 0u);

  net_.RunUntilIdle();
  Check("idle");
  EXPECT_EQ(net_.PendingCount(), 0u);
  if (audit_ != nullptr) {
    EXPECT_GT(audit_->picks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, NetworkBookkeeping,
                         ::testing::Values(Sched::kFifo, Sched::kRandomWalk,
                                           Sched::kDelayBounded),
                         [](const ::testing::TestParamInfo<Sched>& info) {
                           switch (info.param) {
                             case Sched::kFifo:
                               return std::string("Fifo");
                             case Sched::kRandomWalk:
                               return std::string("RandomWalk");
                             case Sched::kDelayBounded:
                               return std::string("DelayBounded");
                           }
                           return std::string("Unknown");
                         });

}  // namespace
}  // namespace bmx
