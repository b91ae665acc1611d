// kv::ReplicaNode's shared contract: the crash-stop lifecycle every node
// type inherits, and the one-shot timer that skips its body across a crash.
#include "kv/replica.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/types.h"
#include "simnet/network.h"
#include "simnet/topology.h"

namespace canopus::kv {
namespace {

/// The smallest replica: counts its lifecycle hooks and timer bodies.
class CountingReplica final : public ReplicaNode {
 public:
  void on_message(const simnet::Message&) override {}

  /// Buffers the answer to read `r`, as a protocol's read path does.
  void buffer_read(const Request& r) { serve_read(r, 0); }
  void flush() { flush_replies(); }
  void arm(Time delay) { after_once(armed_, delay, [this] { ++fired; }); }

  int crashes = 0;
  int recoveries = 0;
  int fired = 0;

 private:
  void on_crash() override { ++crashes; }
  void on_recover() override { ++recoveries; }

  bool armed_ = false;
};

/// Records every completion that reaches it.
class RecordingClient final : public simnet::Process {
 public:
  void on_message(const simnet::Message& m) override {
    if (const auto* b = m.as<ReplyBatch>())
      done.insert(done.end(), b->done.begin(), b->done.end());
  }
  std::vector<Completion> done;
};

class ReplicaNodeTest : public ::testing::Test {
 protected:
  ReplicaNodeTest() {
    simnet::RackConfig rc;
    rc.racks = 1;
    rc.servers_per_rack = 1;
    rc.clients_per_rack = 1;
    cluster_ = simnet::build_multi_rack(rc);
    net_ = std::make_unique<simnet::Network>(sim_, cluster_.topo);
    net_->attach(cluster_.servers[0], node_);
    net_->attach(cluster_.clients[0], client_);
  }

  /// A read sent by the client machine.
  Request client_read() const {
    Request r;
    r.id.client = cluster_.clients[0];
    r.id.seq = 1;
    r.key = 7;
    return r;
  }

  simnet::Simulator sim_{42};
  simnet::Cluster cluster_;
  std::unique_ptr<simnet::Network> net_;
  CountingReplica node_;
  RecordingClient client_;
};

TEST_F(ReplicaNodeTest, RecoverRestartsOnlyACrashedNode) {
  node_.recover();
  EXPECT_FALSE(node_.crashed());
  EXPECT_EQ(node_.recoveries, 0);

  node_.crash();
  EXPECT_TRUE(node_.crashed());
  node_.recover();
  EXPECT_FALSE(node_.crashed());
  node_.recover();
  EXPECT_EQ(node_.crashes, 1);
  EXPECT_EQ(node_.recoveries, 1);
}

TEST_F(ReplicaNodeTest, BufferedReplyReachesTheClientWhenFlushed) {
  node_.buffer_read(client_read());
  node_.flush();
  sim_.run_until(kSecond);
  EXPECT_EQ(client_.done.size(), 1u);
}

TEST_F(ReplicaNodeTest, CrashDropsTheBufferedReply) {
  node_.buffer_read(client_read());
  node_.crash();
  node_.recover();
  node_.flush();
  sim_.run_until(kSecond);
  EXPECT_TRUE(client_.done.empty());
}

TEST_F(ReplicaNodeTest, SecondArmOfAPendingTimerIsIgnored) {
  node_.arm(10 * kMillisecond);
  node_.arm(5 * kMillisecond);
  sim_.run_until(8 * kMillisecond);
  EXPECT_EQ(node_.fired, 0);
  sim_.run_until(kSecond);
  EXPECT_EQ(node_.fired, 1);
}

TEST_F(ReplicaNodeTest, BodyDueWhileCrashedIsSkippedAndTheTimerRearms) {
  node_.arm(10 * kMillisecond);
  sim_.run_until(5 * kMillisecond);
  node_.crash();
  sim_.run_until(20 * kMillisecond);
  EXPECT_EQ(node_.fired, 0);

  node_.recover();
  node_.arm(10 * kMillisecond);
  sim_.run_until(kSecond);
  EXPECT_EQ(node_.fired, 1);
}

}  // namespace
}  // namespace canopus::kv
