// The pre-index critical-path analyzer, kept verbatim as a test oracle
// (see profile_oracle.hpp), plus the bit-exact RunProfile dump.
#include "profile_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <vector>

#include "common/error.hpp"

namespace dt::profile::oracle {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// One attributed slice of the backward walk.
struct Attr {
  CostClass cls;
  int rank;            // worker the slice is charged to (-1: none)
  std::int64_t round;  // round context at the time of attribution
  double seconds;
};

/// Index structures + the backward walk over one SpanLog.
class Walker {
 public:
  Walker(const SpanLog& log, int num_workers) : log_(log) {
    busy_.resize(static_cast<std::size_t>(std::max(num_workers, 0)));
    for (const Span& s : log.spans()) {
      if (s.worker < 0 || s.worker >= num_workers) continue;
      if ((s.phase == 0 || s.phase == 1) && s.end > s.start) {
        busy_[static_cast<std::size_t>(s.worker)].push_back(&s);
      }
    }
    for (auto& v : busy_) {
      std::stable_sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
        return a->start < b->start;
      });
    }
    busy_ends_.resize(busy_.size());
    for (std::size_t r = 0; r < busy_.size(); ++r) {
      busy_ends_[r].reserve(busy_[r].size());
      for (const Span* s : busy_[r]) busy_ends_[r].push_back(s->end);
      std::sort(busy_ends_[r].begin(), busy_ends_[r].end());
    }
    const int num_eps = static_cast<int>(log.endpoints().size());
    inbound_.resize(static_cast<std::size_t>(num_eps));
    ep_rank_.assign(static_cast<std::size_t>(num_eps), -1);
    for (int id = 0; id < num_eps; ++id) {
      const int rank = log.endpoints()[static_cast<std::size_t>(id)].worker_rank;
      if (rank >= 0 && rank < num_workers) ep_rank_[id] = rank;
    }
    for (const MessageEdge& e : log.edges()) {
      if (e.dst >= 0 && e.dst < num_eps) {
        inbound_[static_cast<std::size_t>(e.dst)].push_back(&e);
      }
    }
    for (auto& v : inbound_) {
      // Capture order breaks arrival ties: the last-enqueued edge at an
      // arrival time is the enabling one.
      std::stable_sort(v.begin(), v.end(),
                       [](const MessageEdge* a, const MessageEdge* b) {
                         return a->arrival < b->arrival;
                       });
    }
  }

  [[nodiscard]] int ep_rank(int ep) const noexcept {
    return (ep >= 0 && static_cast<std::size_t>(ep) < ep_rank_.size())
               ? ep_rank_[static_cast<std::size_t>(ep)]
               : -1;
  }

  /// Own busy (compute/local_agg) span covering t (start < t <= end), or
  /// nullptr. With nested spans the innermost (largest start) wins; the
  /// enclosing one is found again when the walk reaches its start.
  [[nodiscard]] const Span* busy_covering(int rank, double t) const {
    const auto& v = busy_[static_cast<std::size_t>(rank)];
    auto it = std::upper_bound(
        v.begin(), v.end(), t,
        [](double val, const Span* s) { return val <= s->start; });
    // it = first span with start >= t; candidates end just before it.
    for (int back = 0; back < 4 && it != v.begin(); ++back) {
      --it;
      if ((*it)->end >= t) return *it;
    }
    return nullptr;
  }

  /// Largest busy-span end <= t for rank, or -inf.
  [[nodiscard]] double busy_floor(int rank, double t) const {
    const auto& v = busy_ends_[static_cast<std::size_t>(rank)];
    auto it = std::upper_bound(v.begin(), v.end(), t);
    return it == v.begin() ? kNegInf : *(it - 1);
  }

  /// Enabling inbound edge: latest arrival <= t at `ep` (ties: latest in
  /// capture order), or nullptr.
  [[nodiscard]] const MessageEdge* inbound_before(int ep, double t) const {
    if (ep < 0 || static_cast<std::size_t>(ep) >= inbound_.size()) {
      return nullptr;
    }
    const auto& v = inbound_[static_cast<std::size_t>(ep)];
    auto it = std::upper_bound(
        v.begin(), v.end(), t,
        [](double val, const MessageEdge* e) { return val < e->arrival; });
    return it == v.begin() ? nullptr : *(it - 1);
  }

  /// Backward walk over [t0, t1] starting at endpoint `ep` at time t1.
  /// Appends attributions whose seconds sum to exactly t1 - t0.
  void walk(int ep, double t0, double t1, std::int64_t round_hint,
            std::vector<Attr>& out) const {
    double t = t1;
    int cur = ep;
    std::int64_t round = round_hint;
    // Every iteration either charges a positive interval or traverses an
    // edge with positive transit (wire latency > 0); the guard only fires
    // on degenerate zero-length cycles and dumps the rest into `wait`.
    std::size_t guard =
        4 * (log_.spans().size() + log_.edges().size()) + 1024;
    while (t > t0) {
      if (guard-- == 0) {
        out.push_back(Attr{CostClass::wait, ep_rank(cur), round, t - t0});
        return;
      }
      const int rank = ep_rank(cur);
      if (rank >= 0) {
        const Span* s = busy_covering(rank, t);
        if (s != nullptr) {
          const double lo = std::max(s->start, t0);
          out.push_back(Attr{
              s->phase == 1 ? CostClass::local_agg : CostClass::compute, rank,
              s->round, t - lo});
          round = s->round;
          t = lo;
          continue;
        }
      }
      const MessageEdge* e = inbound_before(cur, t);
      // The endpoint was idle just before t. It can only have been waiting
      // since the latest of: the enabling message's arrival, the end of its
      // own last busy span (never skip busy time backward), and t0.
      double stop = t0;
      if (rank >= 0) stop = std::max(stop, busy_floor(rank, t));
      if (e != nullptr) stop = std::max(stop, std::min(e->arrival, t));
      if (t > stop) {
        out.push_back(Attr{rank >= 0 ? CostClass::wait : CostClass::ps, rank,
                           round, t - stop});
        t = stop;
        continue;
      }
      if (e != nullptr && e->arrival == t) {
        // Cross the enabling message: transit charges to comm, then keep
        // walking at the sender.
        const double lo = std::max(std::min(e->sent, t), t0);
        if (t > lo) {
          out.push_back(Attr{CostClass::comm, ep_rank(e->src), round, t - lo});
        }
        t = lo;
        cur = e->src;
        continue;
      }
      // No enabling edge and no busy span: untraceable (e.g. spans from an
      // unregistered endpoint) — the rest of the interval is wait.
      out.push_back(Attr{rank >= 0 ? CostClass::wait : CostClass::ps, rank,
                         round, t - t0});
      t = t0;
    }
  }

 private:
  const SpanLog& log_;
  std::vector<std::vector<const Span*>> busy_;  // per rank, by start
  std::vector<std::vector<double>> busy_ends_;  // per rank, sorted
  std::vector<std::vector<const MessageEdge*>> inbound_;  // per ep, by arrival
  std::vector<int> ep_rank_;
};

/// Merged, sorted busy intervals of one rank (for gap computation).
std::vector<std::pair<double, double>> merged_busy(
    const std::vector<const Span*>& sorted_busy) {
  std::vector<std::pair<double, double>> out;
  for (const Span* s : sorted_busy) {
    if (!out.empty() && s->start <= out.back().second) {
      out.back().second = std::max(out.back().second, s->end);
    } else {
      out.emplace_back(s->start, s->end);
    }
  }
  return out;
}

}  // namespace

RunProfile analyze(const SpanLog& log, double makespan, int num_workers,
                   std::int64_t iterations_per_epoch) {
  common::check(makespan >= 0.0, "analyze: negative makespan");
  common::check(num_workers >= 0, "analyze: negative worker count");

  RunProfile p;
  p.makespan = makespan;
  p.num_workers = num_workers;
  p.iterations_per_epoch = iterations_per_epoch;
  p.num_spans = log.spans().size();
  p.num_edges = log.edges().size();
  p.cp_busy_by_rank.assign(static_cast<std::size_t>(num_workers), 0.0);
  p.workers.assign(static_cast<std::size_t>(num_workers), ClassTotals{});
  p.mean_iter_compute.assign(static_cast<std::size_t>(num_workers), 0.0);

  // Per-rank busy compute totals and iteration counts (straggler what-if),
  // plus each rank's last span end and last busy round.
  std::vector<double> compute_total(static_cast<std::size_t>(num_workers),
                                    0.0);
  std::vector<std::int64_t> max_round(static_cast<std::size_t>(num_workers),
                                      -1);
  std::vector<double> horizon(static_cast<std::size_t>(num_workers), 0.0);
  std::vector<std::vector<const Span*>> busy_by_rank(
      static_cast<std::size_t>(num_workers));
  for (const Span& s : log.spans()) {
    if (s.worker < 0 || s.worker >= num_workers) continue;
    const auto r = static_cast<std::size_t>(s.worker);
    horizon[r] = std::max(horizon[r], s.end);
    if (s.phase == 0 && s.end > s.start) {
      compute_total[r] += s.end - s.start;
      max_round[r] = std::max(max_round[r], s.round);
    }
    if ((s.phase == 0 || s.phase == 1) && s.end > s.start) {
      busy_by_rank[r].push_back(&s);
      if (s.phase == 1) max_round[r] = std::max(max_round[r], s.round);
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_workers); ++r) {
    std::stable_sort(
        busy_by_rank[r].begin(), busy_by_rank[r].end(),
        [](const Span* a, const Span* b) { return a->start < b->start; });
    if (max_round[r] >= 0) {
      p.mean_iter_compute[r] =
          compute_total[r] / static_cast<double>(max_round[r] + 1);
    }
  }

  Walker walker(log, num_workers);

  // ---- Global critical path: backward from the last-finishing worker.
  int start_rank = 0;
  double best_end = -1.0;
  for (int r = 0; r < num_workers; ++r) {
    if (horizon[static_cast<std::size_t>(r)] > best_end) {
      best_end = horizon[static_cast<std::size_t>(r)];
      start_rank = r;
    }
  }
  std::map<std::int64_t, ClassTotals> rounds;
  if (makespan > 0.0 && num_workers > 0) {
    std::vector<Attr> attrs;
    const std::int64_t hint =
        std::max<std::int64_t>(max_round[static_cast<std::size_t>(start_rank)],
                               0);
    walker.walk(log.endpoint_of_worker(start_rank), 0.0, makespan, hint,
                attrs);
    for (const Attr& a : attrs) {
      p.critical.add(a.cls, a.seconds);
      if ((a.cls == CostClass::compute || a.cls == CostClass::local_agg) &&
          a.rank >= 0 && a.rank < num_workers) {
        p.cp_busy_by_rank[static_cast<std::size_t>(a.rank)] += a.seconds;
      }
      rounds[std::max<std::int64_t>(a.round, 0)].add(a.cls, a.seconds);
    }
  }
  p.rounds.reserve(rounds.size());
  for (const auto& [round, cls] : rounds) {
    p.rounds.push_back(RoundCost{round, cls});
  }

  // ---- Per-worker wall decomposition: own busy phases verbatim, gaps via
  // the same walk (other ranks' busy time maps to wait = straggler effect).
  for (int r = 0; r < num_workers; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    ClassTotals& w = p.workers[ri];
    for (const Span* s : busy_by_rank[ri]) {
      w.add(s->phase == 1 ? CostClass::local_agg : CostClass::compute,
            s->end - s->start);
    }
    const int ep = log.endpoint_of_worker(r);
    double cursor = 0.0;
    auto attribute_gap = [&](double lo, double hi) {
      if (hi <= lo) return;
      std::vector<Attr> attrs;
      walker.walk(ep, lo, hi, std::max<std::int64_t>(max_round[ri], 0),
                  attrs);
      for (const Attr& a : attrs) {
        switch (a.cls) {
          case CostClass::comm: w.add(CostClass::comm, a.seconds); break;
          case CostClass::ps: w.add(CostClass::ps, a.seconds); break;
          case CostClass::compute:
          case CostClass::local_agg:
            // Someone else's busy time on this worker's wait path.
            w.add(a.rank == r ? a.cls : CostClass::wait, a.seconds);
            break;
          case CostClass::wait: w.add(CostClass::wait, a.seconds); break;
        }
      }
    };
    for (const auto& [lo, hi] : merged_busy(busy_by_rank[ri])) {
      attribute_gap(cursor, lo);
      cursor = std::max(cursor, hi);
    }
    attribute_gap(cursor, horizon[ri]);
  }

  // ---- Analytic what-ifs (upper bounds; see header).
  p.whatif_fast_network = p.critical.get(CostClass::comm);
  p.whatif_no_ps = p.critical.get(CostClass::ps);
  p.whatif_no_wait = p.critical.get(CostClass::wait);
  if (num_workers > 0) {
    int worst = 0;
    for (int r = 1; r < num_workers; ++r) {
      if (p.cp_busy_by_rank[static_cast<std::size_t>(r)] >
          p.cp_busy_by_rank[static_cast<std::size_t>(worst)]) {
        worst = r;
      }
    }
    double best_rate = std::numeric_limits<double>::infinity();
    for (int r = 0; r < num_workers; ++r) {
      const double m = p.mean_iter_compute[static_cast<std::size_t>(r)];
      if (m > 0.0) best_rate = std::min(best_rate, m);
    }
    const double worst_mean =
        p.mean_iter_compute[static_cast<std::size_t>(worst)];
    if (worst_mean > 0.0 && best_rate < worst_mean) {
      p.straggler_rank = worst;
      p.whatif_no_straggler =
          p.cp_busy_by_rank[static_cast<std::size_t>(worst)] *
          (1.0 - best_rate / worst_mean);
    }
  }
  return p;
}

std::string dump(const RunProfile& p) {
  std::string out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), " %a", v);
    out += buf;
  };
  auto totals = [&](const ClassTotals& t) {
    for (double v : t.seconds) num(v);
    out += '\n';
  };
  auto vec = [&](const char* name, const std::vector<double>& v) {
    out += name;
    for (double x : v) num(x);
    out += '\n';
  };
  out += "makespan";
  num(p.makespan);
  out += "\nnum_workers " + std::to_string(p.num_workers) +
         "\niterations_per_epoch " + std::to_string(p.iterations_per_epoch) +
         "\nnum_spans " + std::to_string(p.num_spans) + "\nnum_edges " +
         std::to_string(p.num_edges) + "\ncritical";
  totals(p.critical);
  vec("cp_busy_by_rank", p.cp_busy_by_rank);
  for (const RoundCost& rc : p.rounds) {
    out += "round " + std::to_string(rc.round);
    totals(rc.cls);
  }
  for (std::size_t r = 0; r < p.workers.size(); ++r) {
    out += "worker " + std::to_string(r);
    totals(p.workers[r]);
  }
  vec("mean_iter_compute", p.mean_iter_compute);
  vec("whatifs", {p.whatif_fast_network, p.whatif_no_ps, p.whatif_no_wait,
                  p.whatif_no_straggler});
  out += "straggler_rank " + std::to_string(p.straggler_rank) + "\n";
  return out;
}

}  // namespace dt::profile::oracle
