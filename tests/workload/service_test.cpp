// ConsensusService: the uniform facade drives all four systems through the
// same submit/crash/recover/audit surface.
#include "workload/service.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "workload/deployments.h"

namespace canopus::workload {
namespace {

struct Deployment {
  TrialConfig tc;
  simnet::Simulator sim{7};
  simnet::Cluster cluster;
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<ConsensusService> service;

  explicit Deployment(System sys, int groups = 2, int per_group = 3,
                      int client_machines = 0) {
    tc.system = sys;
    tc.groups = groups;
    tc.per_group = per_group;
    tc.client_machines = client_machines;
    tc = fault_tuned_local(tc);
    cluster = build_cluster(tc);
    net = std::make_unique<simnet::Network>(sim, cluster.topo);
    service = make_service(tc, cluster, *net);
  }

  // Local single-DC repair tuning without dragging in fault_scenario.h.
  static TrialConfig fault_tuned_local(TrialConfig tc) {
    tc.canopus.fetch_timeout = 100 * kMillisecond;
    tc.epaxos.repair_retry = 25 * kMillisecond;
    tc.zab.sync_retry = 25 * kMillisecond;
    return tc;
  }

  void write_at(Time t, std::size_t node, std::uint64_t key,
                std::uint64_t val) {
    sim.at(t, [this, node, key, val] {
      kv::Request r;
      r.is_write = true;
      r.key = key;
      r.value = val;
      r.arrival = sim.now();
      service->submit(node, r);
    });
  }

  bool all_agree() const {
    bool first = true;
    std::uint64_t fp = 0, count = 0;
    for (std::size_t i = 0; i < service->num_servers(); ++i) {
      if (!service->comparable(i)) continue;
      if (first) {
        fp = service->commit_fingerprint(i);
        count = service->committed_writes(i);
        first = false;
      } else if (service->commit_fingerprint(i) != fp ||
                 service->committed_writes(i) != count) {
        return false;
      }
    }
    return true;
  }
};

/// A client machine that sends hand-built batches and records every
/// completion it receives.
class RecordingClient final : public simnet::Process {
 public:
  void on_message(const simnet::Message& m) override {
    if (const auto* b = m.as<kv::ReplyBatch>())
      done.insert(done.end(), b->done.begin(), b->done.end());
  }
  void send_batch(NodeId server, const kv::ClientBatch& b) {
    send(server, b.wire_bytes(), b);
  }
  std::vector<kv::Completion> done;
};

class ServiceTest : public ::testing::TestWithParam<System> {};

TEST_P(ServiceTest, NameMatchesSystem) {
  Deployment d(GetParam());
  EXPECT_STREQ(d.service->name(), system_name(GetParam()));
}

TEST_P(ServiceTest, WritesCommitEverywhereAndDigestsAgree) {
  Deployment d(GetParam());
  d.write_at(5 * kMillisecond, 0, 1, 11);
  d.write_at(6 * kMillisecond, 4, 2, 22);
  d.sim.run_until(2 * kSecond);
  for (std::size_t i = 0; i < d.service->num_servers(); ++i) {
    EXPECT_EQ(d.service->committed_writes(i), 2u) << "node " << i;
    EXPECT_EQ(d.service->store(i).read(1), 11u);
    EXPECT_EQ(d.service->store(i).read(2), 22u);
    EXPECT_GT(d.service->progress(i), 0u);
  }
  EXPECT_TRUE(d.all_agree());
}

TEST_P(ServiceTest, CrashBookkeepingAndComparability) {
  Deployment d(GetParam());
  EXPECT_TRUE(d.service->up(5));
  EXPECT_TRUE(d.service->comparable(5));
  d.service->crash(5);
  EXPECT_FALSE(d.service->up(5));
  EXPECT_TRUE(d.service->ever_crashed(5));
  EXPECT_FALSE(d.service->comparable(5));
}

TEST_P(ServiceTest, SurvivorsCommitAfterOneCrash) {
  Deployment d(GetParam());
  d.sim.at(100 * kMillisecond, [&] { d.service->crash(5); });
  d.write_at(1'500 * kMillisecond, 0, 3, 33);
  d.sim.run_until(4 * kSecond);
  for (std::size_t i = 0; i < d.service->num_servers(); ++i) {
    if (!d.service->comparable(i)) continue;
    EXPECT_EQ(d.service->store(i).read(3), 33u) << "node " << i;
  }
  EXPECT_TRUE(d.all_agree());
}

TEST_P(ServiceTest, RecoverSemanticsMatchTheSystem) {
  Deployment d(GetParam());
  EXPECT_TRUE(d.service->supports_recover());
  d.service->crash(5);
  const bool recovered = d.service->recover(5);
  EXPECT_TRUE(recovered);
  EXPECT_TRUE(d.service->up(5));
  if (GetParam() == System::kCanopus) {
    // A recovered pnode is back up but in JOINING mode: it is excluded from
    // the audit set until a live super-leaf sibling sponsors its re-admission
    // and ships it a state snapshot.
    EXPECT_FALSE(d.service->comparable(5));
  } else {
    EXPECT_TRUE(d.service->comparable(5));
  }
}

TEST_P(ServiceTest, RecoveredNodeConvergesAfterMissingWrites) {
  Deployment d(GetParam());
  d.write_at(5 * kMillisecond, 0, 1, 11);
  d.sim.at(500 * kMillisecond, [&] { d.service->crash(5); });
  d.write_at(700 * kMillisecond, 0, 2, 22);  // missed by node 5
  d.sim.at(1'500 * kMillisecond, [&] { d.service->recover(5); });
  // Post-recovery traffic lets passive gap detection kick in where needed.
  d.write_at(1'700 * kMillisecond, 1, 3, 33);
  d.sim.run_until(5 * kSecond);
  EXPECT_EQ(d.service->store(5).read(2), 22u);
  EXPECT_EQ(d.service->store(5).read(3), 33u);
  EXPECT_TRUE(d.all_agree());
}

TEST_P(ServiceTest, OnCommitHookFiresWithBatches) {
  Deployment d(GetParam());
  std::uint64_t hook_writes = 0;
  d.service->on_commit = [&](std::size_t, std::uint64_t,
                             const std::vector<kv::Request>& batch) {
    for (const kv::Request& r : batch)
      if (r.is_write) ++hook_writes;
  };
  d.write_at(5 * kMillisecond, 0, 1, 11);
  d.sim.run_until(2 * kSecond);
  // Every node reports its commit: groups*per_group nodes x 1 write.
  EXPECT_EQ(hook_writes, d.service->num_servers());
}

// The server side of the client protocol, the same under all four ordering
// protocols: the server a client sent a request to answers it exactly once
// (a write once it commits, a read with the committed value), and a write
// submitted locally, with no client, is answered by no ReplyBatch at all.
TEST_P(ServiceTest, ServerAnswersEachClientRequestExactlyOnce) {
  Deployment d(GetParam(), 2, 3, /*client_machines=*/1);
  const NodeId client_id = d.cluster.clients[0];
  const NodeId server = d.service->server_node(1);  // not the Zab/Raft leader
  RecordingClient client;
  d.net->attach(client_id, client);
  std::size_t reply_batches = 0;
  d.net->set_trace([&](Time, const simnet::Message& m) {
    if (m.as<kv::ReplyBatch>() == nullptr) return;
    ++reply_batches;
    EXPECT_EQ(m.src(), server);
    EXPECT_EQ(m.dst(), client_id);
  });
  constexpr std::uint64_t kKeys = 4;
  const auto batch_at = [&](Time t, bool writes) {
    d.sim.at(t, [&, writes] {
      kv::ClientBatch b;
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        kv::Request r;
        r.id = {client_id, (writes ? 0 : kKeys) + k};
        r.is_write = writes;
        r.key = k;
        r.value = writes ? 100 + k : 0;
        r.arrival = d.sim.now();
        b.reqs.push_back(r);
      }
      client.send_batch(server, b);
    });
  };
  batch_at(5 * kMillisecond, /*writes=*/true);
  d.write_at(5 * kMillisecond, 1, 9, 99);  // local: client is kInvalidNode
  d.sim.run_until(kSecond);
  batch_at(kSecond, /*writes=*/false);
  d.sim.run_until(2 * kSecond);

  std::map<std::uint64_t, int> answers;
  for (const kv::Completion& c : client.done) {
    ++answers[c.id.seq];
    EXPECT_EQ(c.id.client, client_id);
    EXPECT_EQ(c.is_write, c.id.seq < kKeys) << "request " << c.id.seq;
    if (!c.is_write) {
      EXPECT_EQ(c.value, 100 + c.key) << "key " << c.key;
    }
  }
  EXPECT_EQ(answers.size(), 2 * kKeys);
  for (const auto& [seq, n] : answers) EXPECT_EQ(n, 1) << "request " << seq;
  EXPECT_GE(reply_batches, 2u);
  for (std::size_t i = 0; i < d.service->num_servers(); ++i) {
    EXPECT_EQ(d.service->served_reads(i), i == 1 ? kKeys : 0u) << "node " << i;
    EXPECT_EQ(d.service->store(i).read(9), 99u) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ServiceTest,
                         ::testing::Values(System::kCanopus, System::kRaft,
                                           System::kZab, System::kEPaxos),
                         [](const auto& info) {
                           return std::string(system_name(info.param));
                         });

}  // namespace
}  // namespace canopus::workload
