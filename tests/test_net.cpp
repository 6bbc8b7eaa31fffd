// Tests for the simulated network: transfer-time law, NIC contention (the
// PS-bottleneck mechanism), FIFO per flow, tags, and the collectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/collectives.hpp"
#include "net/mailbox.hpp"
#include "net/network.hpp"

namespace dt::net {
namespace {

ClusterSpec two_machine_spec() {
  ClusterSpec spec;
  spec.num_machines = 2;
  spec.nic_bandwidth = 1e9;  // 1 GB/s for easy math
  spec.latency = 1e-3;
  spec.local_bus_bandwidth = 1e10;
  spec.local_latency = 1e-5;
  spec.send_overhead = 0.0;  // keep arithmetic exact in tests
  return spec;
}

TEST(Network, TransferTimeIsBytesOverBandwidthPlusLatency) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(1);
  double arrival = -1.0;
  auto& receiver = engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    (void)net.recv(self, b);
    arrival = self.now();
  });
  (void)receiver;
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    Packet p;
    p.wire_bytes = 500'000'000;  // 0.5 s at 1 GB/s
    net.send(self, a, b, std::move(p));
  });
  engine.run();
  EXPECT_NEAR(arrival, 0.5 + 1e-3, 1e-9);
}

TEST(Network, IntraMachineUsesLocalBus) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(0);
  double arrival = -1.0;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    (void)net.recv(self, b);
    arrival = self.now();
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    Packet p;
    p.wire_bytes = 1'000'000'000;  // 0.1 s at 10 GB/s bus
    net.send(self, a, b, std::move(p));
  });
  engine.run();
  EXPECT_NEAR(arrival, 0.1 + 1e-5, 1e-9);
}

TEST(Network, ReceiverNicSerializesConcurrentSenders) {
  // Two senders on different machines push to one receiver machine at t=0;
  // the receiver's RX queue must serialize them: arrivals at ~0.1 and ~0.2.
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = 3;
  Network net(engine, spec);
  const int rx = net.add_endpoint(0);
  const int s1 = net.add_endpoint(1);
  const int s2 = net.add_endpoint(2);
  std::vector<double> arrivals;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(rx, self);
    for (int i = 0; i < 2; ++i) {
      (void)net.recv(self, rx);
      arrivals.push_back(self.now());
    }
  });
  for (int ep : {s1, s2}) {
    engine.spawn("tx" + std::to_string(ep), [&, ep](runtime::Process& self) {
      net.bind(ep, self);
      Packet p;
      p.wire_bytes = 100'000'000;  // 0.1 s each
      net.send(self, ep, rx, std::move(p));
    });
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.1 + 1e-3, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.2 + 1e-3, 1e-9);
}

TEST(Network, SenderNicSerializesOutgoingFlows) {
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = 3;
  Network net(engine, spec);
  const int tx = net.add_endpoint(0);
  const int r1 = net.add_endpoint(1);
  const int r2 = net.add_endpoint(2);
  std::vector<double> arrivals(2, -1.0);
  engine.spawn("sender", [&](runtime::Process& self) {
    net.bind(tx, self);
    for (int dst : {r1, r2}) {
      Packet p;
      p.wire_bytes = 100'000'000;
      net.send(self, tx, dst, std::move(p));
    }
  });
  engine.spawn("rx1", [&](runtime::Process& self) {
    net.bind(r1, self);
    (void)net.recv(self, r1);
    arrivals[0] = self.now();
  });
  engine.spawn("rx2", [&](runtime::Process& self) {
    net.bind(r2, self);
    (void)net.recv(self, r2);
    arrivals[1] = self.now();
  });
  engine.run();
  EXPECT_NEAR(arrivals[0], 0.1 + 1e-3, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.2 + 1e-3, 1e-9);  // serialized at sender NIC
}

TEST(Network, FifoPerFlowAndTagFiltering) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(1);
  std::vector<std::int64_t> got;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    // Tag-filtered receive: take tag 2 first even though tag 1 arrived first.
    Packet p2 = net.recv(self, b, 2);
    got.push_back(p2.a);
    Packet p1 = net.recv(self, b, 1);
    got.push_back(p1.a);
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    for (int i = 0; i < 2; ++i) {
      Packet p;
      p.tag = i + 1;
      p.a = 100 + i;
      p.wire_bytes = 1000;
      net.send(self, a, b, std::move(p));
    }
  });
  engine.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{101, 100}));
}

TEST(Network, EqualArrivalSendsKeepFifoOrder) {
  // Zero-byte intra-machine packets all arrive at exactly now +
  // local_latency, so every enqueue hits the send fast path with an
  // arrival EQUAL to the queue tail. The append must preserve send order
  // (the same placement std::upper_bound gives for equal keys).
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int rx = net.add_endpoint(0), tx = net.add_endpoint(0);
  std::vector<std::int64_t> order;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(rx, self);
    for (int i = 0; i < 6; ++i) order.push_back(net.recv(self, rx).a);
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(tx, self);
    for (int i = 0; i < 6; ++i) {
      Packet p;
      p.a = i;
      p.wire_bytes = 0;
      net.send(self, tx, rx, std::move(p));
    }
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Network, OutOfOrderArrivalInsertsBeforeTailKeepingEqualKeyFifo) {
  // One process sends a slow inter-machine packet, then two zero-byte
  // local packets to the same destination endpoint: the local ones arrive
  // earlier than the already-queued slow one, forcing the ordered-insert
  // slow path. They must land before the slow packet and keep FIFO order
  // between themselves (equal arrivals).
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int rx = net.add_endpoint(0);
  const int tx_remote = net.add_endpoint(1);
  const int tx_local = net.add_endpoint(0);
  std::vector<std::int64_t> order;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(rx, self);
    for (int i = 0; i < 3; ++i) order.push_back(net.recv(self, rx).a);
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(tx_remote, self);
    Packet slow;
    slow.a = 0;
    slow.wire_bytes = 500'000'000;  // 0.5 s inter-machine
    net.send(self, tx_remote, rx, std::move(slow));
    for (int i = 1; i <= 2; ++i) {
      Packet fast;
      fast.a = i;
      fast.wire_bytes = 0;  // arrives at local_latency, before the slow one
      net.send(self, tx_local, rx, std::move(fast));
    }
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 0}));
}

TEST(Network, TryRecvAndPoll) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(1);
  bool early_empty = false, late_found = false, poll_late = false;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    early_empty = !net.try_recv(self, b).has_value();
    self.advance(10.0);  // let the packet land
    poll_late = net.poll(self, b);
    late_found = net.try_recv(self, b).has_value();
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    Packet p;
    p.wire_bytes = 1000;
    net.send(self, a, b, std::move(p));
  });
  engine.run();
  EXPECT_TRUE(early_empty);
  EXPECT_TRUE(poll_late);
  EXPECT_TRUE(late_found);
}

TEST(Network, OutOfOrderArrivalsAreDeliveredByArrivalThenSendOrder) {
  // One process sends from a remote and a local endpoint with random sizes
  // and pauses, so later sends often overtake earlier ones and zero-byte
  // local sends at one instant tie. A blocking receiver, taking from the
  // front while sends keep landing, must see (arrival, send order) order.
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int rx = net.add_endpoint(0);
  const int tx_remote = net.add_endpoint(1);
  const int tx_local = net.add_endpoint(0);
  const int n = 200;
  std::vector<std::pair<double, std::int64_t>> got;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(rx, self);
    for (int i = 0; i < n; ++i) {
      const Packet p = net.recv(self, rx);
      got.emplace_back(p.arrival, p.a);
    }
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(tx_remote, self);
    common::Rng rng(99);
    for (int i = 0; i < n; ++i) {
      Packet p;
      p.a = i;
      const bool remote = rng.uniform() < 0.5;
      p.wire_bytes = remote ? rng.uniform_u64(2'000'000) : 0;
      net.send(self, remote ? tx_remote : tx_local, rx, std::move(p));
      if (rng.uniform() < 0.3) self.advance(rng.uniform(0.0, 2e-3));
    }
  });
  engine.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  const bool overtaken = std::adjacent_find(got.begin(), got.end(),
                                            [](const auto& x, const auto& y) {
                                              return y.second < x.second;
                                            }) != got.end();
  EXPECT_TRUE(overtaken) << "no send overtook an earlier one";
  const bool tied = std::adjacent_find(got.begin(), got.end(),
                                       [](const auto& x, const auto& y) {
                                         return x.first == y.first;
                                       }) != got.end();
  EXPECT_TRUE(tied) << "no two packets arrived at the same instant";
}

TEST(Network, TagFilteredTryRecvTakesFromTheMiddle) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(1);
  std::vector<std::int64_t> order;
  std::vector<std::size_t> depth;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    self.advance(10.0);  // let every packet land
    depth.push_back(net.queue_depth(b));
    EXPECT_FALSE(net.try_recv(self, b, 9).has_value());
    EXPECT_TRUE(net.poll(self, b, 3));
    order.push_back(net.try_recv(self, b, 3)->a);
    order.push_back(net.try_recv(self, b, 2)->a);
    depth.push_back(net.queue_depth(b));
    while (auto p = net.try_recv(self, b)) order.push_back(p->a);
    depth.push_back(net.queue_depth(b));
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    const int tags[] = {1, 2, 1, 3, 2, 1};
    for (int i = 0; i < 6; ++i) {
      Packet p;
      p.tag = tags[i];
      p.a = i;
      p.wire_bytes = 1000;
      net.send(self, a, b, std::move(p));
    }
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::int64_t>{3, 1, 0, 2, 4, 5}));
  EXPECT_EQ(depth, (std::vector<std::size_t>{6, 4, 0}));
}

TEST(Network, MailboxIsReusedAfterDrain) {
  // Take one packet (the mailbox head moves), drop the rest with drain,
  // then the same mailbox must queue and deliver a new batch in order.
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(1);
  std::vector<std::int64_t> order;
  std::size_t dropped = 0;
  std::size_t depth_after_drain = 1;
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    order.push_back(net.recv(self, b).a);
    self.advance(1.0);  // the rest of the first batch lands
    dropped = net.drain(b);
    depth_after_drain = net.queue_depth(b);
    EXPECT_FALSE(net.try_recv(self, b).has_value());
    for (int i = 0; i < 4; ++i) order.push_back(net.recv(self, b).a);
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    for (int batch = 0; batch < 2; ++batch) {
      for (int i = 0; i < 4; ++i) {
        Packet p;
        p.a = 10 * batch + i;
        p.wire_bytes = 1000;
        net.send(self, a, b, std::move(p));
      }
      self.advance(2.0);
    }
  });
  engine.run();
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(depth_after_drain, 0u);
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 10, 11, 12, 13}));
}

TEST(Mailboxes, QueuesShareOnePoolAndKeepArrivalOrder) {
  Mailboxes boxes;
  const int a = boxes.add(), b = boxes.add();
  const auto push = [&boxes](int box, std::int64_t id, double arrival,
                             int tag = 0) {
    Packet p;
    p.a = id;
    p.arrival = arrival;
    p.tag = tag;
    boxes.insert(box, std::move(p));
  };
  // Takes every packet of `box` in queue order.
  const auto take_all = [&boxes](int box) {
    std::vector<std::int64_t> out;
    Mailboxes::Slot s;
    while ((s = boxes.find(box, kAnyTag)) != Mailboxes::kNone) {
      out.push_back(boxes.take(box, s).a);
    }
    return out;
  };
  push(a, 0, 1.0);
  push(a, 1, 3.0);
  push(b, 100, 2.0);
  push(a, 2, 2.0);  // between two queued packets
  push(a, 3, 3.0);  // ties keep insertion order
  push(a, 4, 0.5);  // before everything
  push(a, 5, 2.0, 7);
  EXPECT_EQ(boxes.size(a), 6u);
  EXPECT_EQ(boxes.size(b), 1u);
  const Mailboxes::Slot tagged = boxes.find(a, 7);
  ASSERT_NE(tagged, Mailboxes::kNone);
  EXPECT_EQ(boxes.take(a, tagged).a, 5);  // from the middle
  EXPECT_EQ(boxes.find(a, 7), Mailboxes::kNone);
  EXPECT_EQ(take_all(a), (std::vector<std::int64_t>{4, 0, 2, 1, 3}));
  EXPECT_EQ(boxes.size(a), 0u);
  // Freed slots are reused; the other queue is untouched throughout.
  push(a, 6, 9.0);
  push(a, 7, 8.0);
  EXPECT_EQ(boxes.clear(a), 2u);
  EXPECT_EQ(boxes.find(a, kAnyTag), Mailboxes::kNone);
  push(a, 8, 1.0);
  EXPECT_EQ(take_all(a), (std::vector<std::int64_t>{8}));
  EXPECT_EQ(take_all(b), (std::vector<std::int64_t>{100}));
}

TEST(Network, RecvByNonOwnerThrows) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0);
  engine.spawn("thief", [&](runtime::Process& self) {
    EXPECT_THROW((void)net.try_recv(self, a), common::Error);
  });
  engine.run();
}

TEST(Network, StatsCountMessagesAndBytes) {
  runtime::SimEngine engine;
  Network net(engine, two_machine_spec());
  const int a = net.add_endpoint(0), b = net.add_endpoint(1),
            c = net.add_endpoint(0);
  engine.spawn("rx", [&](runtime::Process& self) {
    net.bind(b, self);
    (void)net.recv(self, b);
  });
  engine.spawn("rx-local", [&](runtime::Process& self) {
    net.bind(c, self);
    (void)net.recv(self, c);
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    net.bind(a, self);
    Packet p;
    p.wire_bytes = 100;
    net.send(self, a, b, std::move(p));
    Packet q;
    q.wire_bytes = 50;
    net.send(self, a, c, std::move(q));  // intra-machine
  });
  engine.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 150u);
  EXPECT_EQ(net.stats().inter_machine_messages, 1u);
  EXPECT_EQ(net.stats().inter_machine_bytes, 100u);
}

// ---- collectives -----------------------------------------------------------

class AllReduceProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllReduceProperty, MatchesSequentialSum) {
  const auto [n, len] = GetParam();
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = std::max(1, (n + 3) / 4);
  Network net(engine, spec);

  std::vector<int> eps;
  for (int r = 0; r < n; ++r) eps.push_back(net.add_endpoint(r / 4));

  common::Rng rng(n * 100 + len);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(n));
  std::vector<float> expected(static_cast<std::size_t>(len), 0.0f);
  for (int r = 0; r < n; ++r) {
    data[static_cast<std::size_t>(r)].resize(static_cast<std::size_t>(len));
    for (auto& v : data[static_cast<std::size_t>(r)]) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (int i = 0; i < len; ++i) {
      expected[static_cast<std::size_t>(i)] +=
          data[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
    }
  }

  for (int r = 0; r < n; ++r) {
    engine.spawn("w" + std::to_string(r), [&, r](runtime::Process& self) {
      net.bind(eps[static_cast<std::size_t>(r)], self);
      Communicator comm{.net = &net, .endpoints = eps, .my_rank = r};
      ring_allreduce(self, comm, data[static_cast<std::size_t>(r)],
                     static_cast<std::uint64_t>(len) * 4, 500);
    });
  }
  engine.run();

  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < len; ++i) {
      EXPECT_NEAR(
          data[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
          expected[static_cast<std::size_t>(i)], 1e-4)
          << "rank " << r << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AllReduceProperty,
    ::testing::Values(std::make_tuple(1, 8), std::make_tuple(2, 10),
                      std::make_tuple(3, 7), std::make_tuple(4, 64),
                      std::make_tuple(5, 5), std::make_tuple(8, 33),
                      std::make_tuple(13, 13)));

TEST(Barrier, SynchronizesRanks) {
  const int n = 6;
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = 2;
  Network net(engine, spec);
  std::vector<int> eps;
  for (int r = 0; r < n; ++r) eps.push_back(net.add_endpoint(r % 2));

  std::vector<double> exit_times(n, -1.0);
  for (int r = 0; r < n; ++r) {
    engine.spawn("w" + std::to_string(r), [&, r](runtime::Process& self) {
      net.bind(eps[static_cast<std::size_t>(r)], self);
      self.advance(static_cast<double>(r));  // staggered arrival
      Communicator comm{.net = &net, .endpoints = eps, .my_rank = r};
      barrier(self, comm, 700);
      exit_times[static_cast<std::size_t>(r)] = self.now();
    });
  }
  engine.run();
  // Nobody may leave before the slowest (rank n-1) arrived at t = n-1.
  for (double t : exit_times) EXPECT_GE(t, static_cast<double>(n - 1));
}

TEST(Network, RandomTrafficConservesMessages) {
  // Property: under randomized many-to-many traffic, every sent packet is
  // delivered exactly once, in nondecreasing per-flow order, and the run
  // terminates (no deadlock) — the load pattern PS sharding generates.
  const int n = 6;
  const int per_sender = 40;
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = 3;
  Network net(engine, spec);
  std::vector<int> eps;
  for (int r = 0; r < n; ++r) eps.push_back(net.add_endpoint(r % 3));

  std::vector<int> received(n, 0);
  // Each endpoint owner receives everything addressed to it; senders pick
  // random targets. Expected counts are tallied first for determinism.
  common::Rng plan_rng(321);
  std::vector<std::vector<int>> targets(n);
  std::vector<int> expected(n, 0);
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k < per_sender; ++k) {
      int t = static_cast<int>(plan_rng.uniform_u64(n - 1));
      if (t >= r) ++t;
      targets[static_cast<std::size_t>(r)].push_back(t);
      ++expected[static_cast<std::size_t>(t)];
    }
  }

  for (int r = 0; r < n; ++r) {
    engine.spawn("p" + std::to_string(r), [&, r](runtime::Process& self) {
      net.bind(eps[static_cast<std::size_t>(r)], self);
      common::Rng rng(1000 + r);
      std::size_t sent = 0;
      double last_arrival = -1.0;
      while (sent < targets[static_cast<std::size_t>(r)].size() ||
             received[static_cast<std::size_t>(r)] <
                 expected[static_cast<std::size_t>(r)]) {
        if (sent < targets[static_cast<std::size_t>(r)].size()) {
          Packet p;
          p.tag = 7;
          p.wire_bytes = 1000 + rng.uniform_u64(100000);
          net.send(self, eps[static_cast<std::size_t>(r)],
                   eps[static_cast<std::size_t>(
                       targets[static_cast<std::size_t>(r)][sent])],
                   std::move(p));
          ++sent;
          self.advance(rng.uniform(0.0, 1e-4));
        } else {
          Packet p = net.recv(self, eps[static_cast<std::size_t>(r)], 7);
          EXPECT_GE(p.arrival, last_arrival);  // earliest-first delivery
          last_arrival = p.arrival;
          ++received[static_cast<std::size_t>(r)];
        }
      }
      // Drain any packets that arrived while still sending.
      while (received[static_cast<std::size_t>(r)] <
             expected[static_cast<std::size_t>(r)]) {
        (void)net.recv(self, eps[static_cast<std::size_t>(r)], 7);
        ++received[static_cast<std::size_t>(r)];
      }
    });
  }
  engine.run();
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(received[static_cast<std::size_t>(r)],
              expected[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(net.stats().messages,
            static_cast<std::uint64_t>(n) * per_sender);
}

TEST(RingAllReduce, CostOnlyModeMovesExpectedBytes) {
  const int n = 4;
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = 4;
  Network net(engine, spec);
  std::vector<int> eps;
  for (int r = 0; r < n; ++r) eps.push_back(net.add_endpoint(r));

  const std::uint64_t total = 4096;
  for (int r = 0; r < n; ++r) {
    engine.spawn("w" + std::to_string(r), [&, r](runtime::Process& self) {
      net.bind(eps[static_cast<std::size_t>(r)], self);
      Communicator comm{.net = &net, .endpoints = eps, .my_rank = r};
      std::span<float> empty;
      ring_allreduce(self, comm, empty, total, 300);
    });
  }
  engine.run();
  // 2*(n-1) steps per rank, each total/n bytes.
  EXPECT_EQ(net.stats().bytes,
            static_cast<std::uint64_t>(n) * 2 * (n - 1) * (total / n));
}

TEST(RingAllReduce, BillsExactBytesWhenRanksDoNotDivideTotal) {
  // 4 does not divide 4097: per-chunk bills must follow chunk_range (sizes
  // 1025,1024,1024,1024), not a uniform total/n that undercounts 1 byte per
  // lap. Every chunk index crosses the wire n-1 times per phase, so the
  // grand total is exactly 2*(n-1)*total.
  const int n = 4;
  runtime::SimEngine engine;
  ClusterSpec spec = two_machine_spec();
  spec.num_machines = 4;
  Network net(engine, spec);
  std::vector<int> eps;
  for (int r = 0; r < n; ++r) eps.push_back(net.add_endpoint(r));

  const std::uint64_t total = 4097;
  for (int r = 0; r < n; ++r) {
    engine.spawn("w" + std::to_string(r), [&, r](runtime::Process& self) {
      net.bind(eps[static_cast<std::size_t>(r)], self);
      Communicator comm{.net = &net, .endpoints = eps, .my_rank = r};
      std::span<float> empty;
      ring_allreduce(self, comm, empty, total, 300);
    });
  }
  engine.run();
  EXPECT_EQ(net.stats().bytes,
            static_cast<std::uint64_t>(2) * (n - 1) * total);
}

}  // namespace
}  // namespace dt::net
