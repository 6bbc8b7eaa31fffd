// Differential tests for the critical-path analyzer: profile::analyze (the
// flat index with galloping lookups and time-ordered gap walks) must return
// a RunProfile bitwise equal to oracle::analyze (the plain walk, kept in
// tests/ only) on real runs of every protocol and on seeded synthetic span
// logs built to reach the walk's corner cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/trainer.hpp"
#include "profile/critical_path.hpp"
#include "profile/spans.hpp"
#include "profile_oracle.hpp"

namespace dt::profile {
namespace {

// ---------------------------------------------------------------------------
// Real runs: small-N cost-only runs of all 10 protocols
// ---------------------------------------------------------------------------

class OracleProtocols
    : public ::testing::TestWithParam<std::tuple<core::Algo, int>> {};

TEST_P(OracleProtocols, ProfileMatchesOracleBitwise) {
  const auto [algo, workers] = GetParam();
  core::Workload wl = core::make_cost_workload(
      cost::uniform_profile("u", 6, 200'000, 2e8), 32);
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = workers;
  cfg.iterations = 6;
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 11;
  cfg.easgd_tau = 2;  // both exchange within the run
  cfg.gosgd_p = 0.5;
  cfg.profile = true;
  core::Session session(cfg, wl);
  const auto result = session.run();
  ASSERT_TRUE(result.profile);
  ASSERT_NE(session.spans(), nullptr);
  const RunProfile want = oracle::analyze(
      *session.spans(), result.virtual_duration, workers, 0);
  EXPECT_EQ(oracle::dump(*result.profile), oracle::dump(want));
  EXPECT_GT(session.spans()->edges().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, OracleProtocols,
    ::testing::Combine(
        ::testing::Values(core::Algo::bsp, core::Algo::asp, core::Algo::ssp,
                          core::Algo::dssp, core::Algo::easgd,
                          core::Algo::arsgd, core::Algo::gosgd,
                          core::Algo::adpsgd, core::Algo::dpsgd,
                          core::Algo::fsdp),
        ::testing::Values(3, 4)));

// ---------------------------------------------------------------------------
// Seeded synthetic span logs
// ---------------------------------------------------------------------------

/// Which corner cases one synthetic log contains.
struct Features {
  bool deep_nest = false;       // > 4 nested busy spans on one rank
  bool zero_transit = false;    // an edge with sent == arrival
  bool arrival_tie = false;     // two edges into one endpoint, same arrival
  bool unregistered = false;    // an edge touching an unregistered endpoint
  bool zero_cycle = false;      // a zero-transit two-edge cycle
};

struct Synthetic {
  // On the heap, so the log's view of it survives a move of the struct.
  std::unique_ptr<metrics::EdgeLog> edges =
      std::make_unique<metrics::EdgeLog>();
  SpanLog log{*edges};
  double makespan = 0.0;
  int num_workers = 0;
  std::int64_t iterations_per_epoch = 0;
  Features has;
};

/// Builds one log from `seed`. Times sit on a coarse grid so that spans,
/// arrivals and walk positions collide exactly, which is where the walk's
/// tie rules matter. The grid step is not a power of two, so sums of
/// slices round, and a change in summation order shows in the bits.
/// Capture order is either shuffled or near time order.
Synthetic make_synthetic(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uni = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto coin = [&rng](double p) {
    return std::bernoulli_distribution(p)(rng);
  };
  const double q = 0.1;  // time grid
  const bool big = seed % 10 == 0;
  const int horizon = big ? 400 : 40;  // in grid steps
  auto grid = [&](int lo, int hi) { return q * uni(lo, hi); };

  Synthetic s;
  s.num_workers = uni(1, big ? 12 : 5);
  s.iterations_per_epoch = uni(0, 3);
  const int num_eps = s.num_workers + uni(0, 3);

  // Endpoint table: worker mailboxes at shuffled ids, sometimes a worker
  // left unregistered or registered twice, the rest PS-like endpoints.
  std::vector<int> ids(static_cast<std::size_t>(num_eps));
  for (int i = 0; i < num_eps; ++i) ids[static_cast<std::size_t>(i)] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  for (int i = 0; i < num_eps; ++i) {
    const int id = ids[static_cast<std::size_t>(i)];
    int rank = i < s.num_workers ? i : -1;
    if (rank >= 0 && coin(0.1)) rank = -1;
    if (rank < 0 && coin(0.15)) rank = uni(0, s.num_workers);  // may be >= N
    if (coin(0.05)) continue;  // leave the id unregistered
    s.log.register_endpoint(id, "ep", 0, rank);
  }
  for (const EndpointInfo& e : s.log.endpoints()) {
    if (e.name.empty()) s.has.unregistered = true;
  }

  struct Item {
    bool span;
    int a, b;
    std::int64_t round;
    int phase;
    double x, y;
  };
  std::vector<Item> items;
  const int num_spans = uni(0, big ? 300 : 30);
  for (int i = 0; i < num_spans; ++i) {
    const double start = grid(0, horizon);
    const double end = coin(0.1) ? start : start + grid(1, 8);
    items.push_back(Item{true, uni(-1, s.num_workers), 0, uni(0, 4),
                         uni(0, 4), start, end});
  }
  if (coin(0.3)) {
    // A nest of 5-7 busy spans: each starts later and ends earlier.
    const int worker = uni(0, s.num_workers - 1);
    const int depth = uni(5, 7);
    const double base = grid(0, horizon);
    for (int d = 0; d < depth; ++d) {
      items.push_back(Item{true, worker, 0, uni(0, 4), uni(0, 1),
                           base + q * d, base + q * (2 * depth + 1 - d)});
    }
    s.has.deep_nest = true;
  }
  const int num_edges = uni(0, big ? 900 : 60);
  for (int i = 0; i < num_edges; ++i) {
    const double sent = grid(0, horizon);
    const double arrival = coin(0.15) ? sent : sent + grid(1, 6);
    items.push_back(Item{false, uni(-1, num_eps + 1), uni(-1, num_eps + 1), 0,
                         0, sent, arrival});
    if (coin(0.15)) {  // a second edge into the same endpoint, same arrival
      items.push_back(Item{false, uni(0, num_eps - 1), items.back().b, 0, 0,
                           arrival - grid(0, 3), arrival});
    }
  }
  if (coin(0.1) && num_eps >= 2) {
    // A zero-length cycle between two endpoints at one instant: the walk
    // crosses it forever until the guard fires.
    const double t = grid(1, horizon);
    items.push_back(Item{false, 0, 1, 0, 0, t, t});
    items.push_back(Item{false, 1, 0, 0, 0, t, t});
    s.has.zero_cycle = true;
  }

  if (coin(0.5)) {
    std::shuffle(items.begin(), items.end(), rng);
  } else {
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.y < b.y; });
  }
  double last = 0.0;
  for (const Item& it : items) {
    last = std::max(last, it.y);
    if (it.span) {
      s.log.on_phase(it.a, it.round, it.phase, it.x, it.y);
    } else {
      s.edges->push_back({it.a, it.b, 64, it.x, it.y, false});
    }
  }
  s.makespan = coin(0.1) ? 0.0 : last + grid(0, 4);

  const auto& edges = s.log.edges();
  const auto eps = static_cast<int>(s.log.endpoints().size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const MessageEdge& e = edges[i];
    if (e.sent == e.arrival) s.has.zero_transit = true;
    if (e.src < 0 || e.src >= eps || e.dst < 0 || e.dst >= eps) {
      s.has.unregistered = true;
    }
    for (std::size_t j = 0; j < i && !s.has.arrival_tie; ++j) {
      if (edges[j].dst == e.dst && edges[j].arrival == e.arrival &&
          edges[j].src != e.src) {
        s.has.arrival_tie = true;
      }
    }
  }
  return s;
}

TEST(OracleSynthetic, SeededLogsMatchOracleBitwise) {
  constexpr std::uint64_t kLogs = 1500;
  Features seen;
  int mismatches = 0;
  for (std::uint64_t seed = 1; seed <= kLogs; ++seed) {
    const Synthetic s = make_synthetic(seed);
    const std::string got = oracle::dump(
        analyze(s.log, s.makespan, s.num_workers, s.iterations_per_epoch));
    const std::string want = oracle::dump(oracle::analyze(
        s.log, s.makespan, s.num_workers, s.iterations_per_epoch));
    if (got != want && ++mismatches <= 3) {
      ADD_FAILURE() << "seed " << seed << "\n--- analyze\n"
                    << got << "--- oracle\n"
                    << want;
    }
    seen.deep_nest |= s.has.deep_nest;
    seen.zero_transit |= s.has.zero_transit;
    seen.arrival_tie |= s.has.arrival_tie;
    seen.unregistered |= s.has.unregistered;
    seen.zero_cycle |= s.has.zero_cycle;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(seen.deep_nest);
  EXPECT_TRUE(seen.zero_transit);
  EXPECT_TRUE(seen.arrival_tie);
  EXPECT_TRUE(seen.unregistered);
  EXPECT_TRUE(seen.zero_cycle);
}

TEST(OracleSynthetic, ZeroLengthCycleTripsTheGuard) {
  // worker0 <-> ps1 exchange zero-transit messages at t = 1: the walk from
  // worker0 crosses the pair forever until the guard books the remaining
  // [0, 1] as wait. Both analyzers must agree, and the path still tiles.
  metrics::EdgeLog edges{{1, 0, 8, 1.0, 1.0, false},
                         {0, 1, 8, 1.0, 1.0, false}};
  SpanLog log(edges);
  log.register_endpoint(0, "worker0", 0, 0);
  log.register_endpoint(1, "ps1", 0, -1);
  log.on_phase(0, 0, 0, 1.0, 2.0);
  const RunProfile p = analyze(log, 2.0, 1, 0);
  EXPECT_EQ(oracle::dump(p), oracle::dump(oracle::analyze(log, 2.0, 1, 0)));
  EXPECT_EQ(p.critical.get(CostClass::compute), 1.0);
  EXPECT_EQ(p.critical.get(CostClass::wait), 1.0);
  EXPECT_EQ(p.critical.total(), 2.0);
}

}  // namespace
}  // namespace dt::profile
