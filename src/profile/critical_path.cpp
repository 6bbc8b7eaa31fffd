#include "profile/critical_path.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace dt::profile {

const char* cost_class_name(CostClass c) noexcept {
  switch (c) {
    case CostClass::compute: return "compute";
    case CostClass::local_agg: return "local agg";
    case CostClass::comm: return "comm (wire)";
    case CostClass::ps: return "ps queue/agg";
    case CostClass::wait: return "wait (block)";
  }
  return "unknown";
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Row entries of the index, each sorted by `key`: a busy span's start or
/// end (with the span's id), or an inbound edge's arrival (with what
/// crossing it needs, so a walk step never touches the 40-byte
/// MessageEdge).
struct BusyEntry {
  double key;
  std::size_t span;
};
struct InEntry {
  double key;
  double sent;
  int src;
  /// Finger for the sender's row after crossing this edge: the sender's
  /// inbound count at capture (= send) time, off by at most the messages
  /// then in flight to it. Fingers move searches, never their answers.
  std::uint32_t src_finger;
};

/// Row r of a CSR column: col[off[r], off[r + 1]).
template <class T>
std::span<const T> row(const std::vector<T>& col,
                       const std::vector<std::size_t>& off, std::size_t r) {
  return {col.data() + off[r], off[r + 1] - off[r]};
}

/// std::partition_point of the sorted row v under `before`, found by
/// galloping out from `finger`, the row's previous answer, which it then
/// becomes. Successive walk steps on a row ask about nearby times, so a
/// lookup costs O(log distance) instead of a cold O(log n) search.
template <class T, class Before>
std::size_t gallop(std::span<const T> v, std::size_t& finger, Before before) {
  const std::size_t n = v.size();
  std::size_t lo = 0;
  std::size_t hi = n;
  if (finger < n && before(v[finger])) {
    lo = finger + 1;
    for (std::size_t step = 1;; step *= 2) {
      hi = n - lo > step ? lo + step : n;
      if (hi == n || !before(v[hi])) break;
      lo = hi + 1;
    }
  } else {
    hi = std::min(finger, n);
    for (std::size_t step = 1;; step *= 2) {
      lo = hi > step ? hi - step : 0;
      if (lo == 0 || before(v[lo])) break;
      hi = lo;
    }
  }
  finger = static_cast<std::size_t>(
      std::partition_point(v.begin() + lo, v.begin() + hi, before) -
      v.begin());
  return finger;
}

/// Buckets entry(i) for the i in [0, n) with row_of(i) >= 0 into CSR rows
/// (see row()), each sorted stably by key; entry() is called in id order.
/// Spans and edges are captured in near key order, so the insertion sort is
/// close to one linear pass, and ties keep capture order.
template <class Entry, class RowOf, class MakeEntry>
std::vector<Entry> sorted_rows(std::size_t n, std::size_t rows, RowOf row_of,
                               MakeEntry entry, std::vector<std::size_t>& off) {
  off.assign(rows + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (row_of(i) >= 0) ++off[static_cast<std::size_t>(row_of(i)) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) off[r + 1] += off[r];
  std::vector<Entry> out(off[rows]);
  std::vector<std::size_t> fill(off.begin(), off.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const int r = row_of(i);
    if (r < 0) continue;
    const Entry x = entry(i);
    std::size_t j = fill[static_cast<std::size_t>(r)]++;
    for (; j > off[static_cast<std::size_t>(r)] && out[j - 1].key > x.key;
         --j) {
      out[j] = out[j - 1];
    }
    out[j] = x;
  }
  return out;
}

/// The span log as flat CSR rows, built once per analysis, plus the
/// backward walk over them. Per rank: its busy (compute/local_agg) spans by
/// start, and again by end. Per endpoint: its inbound edges by arrival,
/// capture order breaking ties (the last-enqueued edge at an arrival time
/// is the enabling one). Each row keeps a finger for gallop().
class Index {
 public:
  Index(const SpanLog& log, int num_workers)
      : spans_(log.spans()),
        guard_(4 * (spans_.size() + log.edges().size()) + 1024) {
    const auto workers = static_cast<std::size_t>(std::max(num_workers, 0));
    const std::size_t num_eps = log.endpoints().size();
    ep_rank_.assign(num_eps, -1);
    rank_ep_.assign(workers, -1);
    for (std::size_t id = num_eps; id-- > 0;) {  // lowest id wins per rank
      const int rank = log.endpoints()[id].worker_rank;
      if (rank >= 0 && rank < num_workers) {
        ep_rank_[id] = rank;
        rank_ep_[static_cast<std::size_t>(rank)] = static_cast<int>(id);
      }
    }
    auto busy_rank = [&](std::size_t i) {
      const Span& s = spans_[i];
      const bool busy = (s.phase == 0 || s.phase == 1) && s.end > s.start;
      return busy && s.worker >= 0 && s.worker < num_workers ? s.worker : -1;
    };
    busy_ = sorted_rows<BusyEntry>(
        spans_.size(), workers, busy_rank,
        [&](std::size_t i) { return BusyEntry{spans_[i].start, i}; },
        busy_off_);
    ends_ = sorted_rows<BusyEntry>(
        spans_.size(), workers, busy_rank,
        [&](std::size_t i) { return BusyEntry{spans_[i].end, i}; },
        busy_off_);
    const std::vector<MessageEdge>& edges = log.edges();
    std::vector<std::uint32_t> received(num_eps, 0);
    in_ = sorted_rows<InEntry>(
        edges.size(), num_eps,
        [&](std::size_t i) {
          return registered(edges[i].dst) ? edges[i].dst : -1;
        },
        [&](std::size_t i) {
          const MessageEdge& e = edges[i];
          const auto src = static_cast<std::size_t>(e.src);
          const InEntry x{e.arrival, e.sent, e.src,
                          registered(e.src) ? received[src] : 0};
          ++received[static_cast<std::size_t>(e.dst)];
          return x;
        },
        in_off_);
    in_finger_.assign(num_eps, 0);
    busy_finger_.assign(workers, 0);
    ends_finger_.assign(workers, 0);
  }

  /// Endpoint of `rank`'s worker mailbox (the lowest registered id), or -1.
  [[nodiscard]] int endpoint_of(int rank) const noexcept {
    return rank_ep_[static_cast<std::size_t>(rank)];
  }

  /// `rank`'s busy spans in start order (stable in capture order).
  [[nodiscard]] std::span<const BusyEntry> busy_row(int rank) const {
    return row(busy_, busy_off_, static_cast<std::size_t>(rank));
  }

  /// Backward walk over [t0, t1] starting at endpoint `ep` at time t1.
  /// Calls emit(class, rank, round, seconds) with slices whose seconds sum
  /// to exactly t1 - t0.
  template <class Emit>
  void walk(int ep, double t0, double t1, std::int64_t round_hint,
            Emit&& emit) {
    double t = t1;
    int cur = ep;
    std::int64_t round = round_hint;
    // Every iteration either charges a positive interval or traverses an
    // edge with positive transit (wire latency > 0); the guard only fires
    // on degenerate zero-length cycles and dumps the rest into `wait`.
    std::size_t guard = guard_;
    while (t > t0) {
      if (guard-- == 0) {
        emit(CostClass::wait, ep_rank(cur), round, t - t0);
        return;
      }
      const int rank = ep_rank(cur);
      if (rank >= 0) {
        const Span* s = busy_covering(rank, t);
        if (s != nullptr) {
          const double lo = std::max(s->start, t0);
          emit(s->phase == 1 ? CostClass::local_agg : CostClass::compute,
               rank, s->round, t - lo);
          round = s->round;
          t = lo;
          continue;
        }
      }
      const InEntry* e = inbound_before(cur, t);
      // The endpoint was idle just before t. It can only have been waiting
      // since the latest of: the enabling message's arrival, the end of its
      // own last busy span (never skip busy time backward), and t0.
      double stop = t0;
      if (rank >= 0) stop = std::max(stop, busy_floor(rank, t));
      if (e != nullptr) stop = std::max(stop, std::min(e->key, t));
      if (t > stop) {
        emit(rank >= 0 ? CostClass::wait : CostClass::ps, rank, round,
             t - stop);
        t = stop;
        continue;
      }
      if (e != nullptr && e->key == t) {
        // Cross the enabling message: transit charges to comm, then keep
        // walking at the sender.
        const double lo = std::max(std::min(e->sent, t), t0);
        if (t > lo) emit(CostClass::comm, ep_rank(e->src), round, t - lo);
        t = lo;
        cur = e->src;
        if (registered(cur)) {
          in_finger_[static_cast<std::size_t>(cur)] = e->src_finger;
        }
        continue;
      }
      // No enabling edge and no busy span: untraceable (e.g. spans from an
      // unregistered endpoint) — the rest of the interval is wait.
      emit(rank >= 0 ? CostClass::wait : CostClass::ps, rank, round, t - t0);
      t = t0;
    }
  }

 private:
  /// True for an id in the endpoint table; other ids (e.g. unregistered
  /// senders) have no rows and no rank.
  [[nodiscard]] bool registered(int ep) const noexcept {
    return ep >= 0 && static_cast<std::size_t>(ep) < ep_rank_.size();
  }

  [[nodiscard]] int ep_rank(int ep) const noexcept {
    return registered(ep) ? ep_rank_[static_cast<std::size_t>(ep)] : -1;
  }

  /// Own busy span covering t (start < t <= end), or nullptr. With nested
  /// spans the innermost (largest start) among the last four starting
  /// before t wins; the enclosing one is found again when the walk reaches
  /// its start.
  [[nodiscard]] const Span* busy_covering(int rank, double t) {
    const auto v = busy_row(rank);
    std::size_t i = gallop(v, busy_finger_[static_cast<std::size_t>(rank)],
                           [t](const BusyEntry& s) { return s.key < t; });
    for (int back = 0; back < 4 && i > 0; ++back) {
      const Span& s = spans_[v[--i].span];
      if (s.end >= t) return &s;
    }
    return nullptr;
  }

  /// Largest busy-span end <= t for rank, or -inf.
  [[nodiscard]] double busy_floor(int rank, double t) {
    const auto r = static_cast<std::size_t>(rank);
    const auto v = row(ends_, busy_off_, r);
    const std::size_t i = gallop(
        v, ends_finger_[r], [t](const BusyEntry& e) { return e.key <= t; });
    return i == 0 ? kNegInf : v[i - 1].key;
  }

  /// Enabling inbound edge at `ep`: latest arrival <= t (ties: latest in
  /// capture order), or nullptr.
  [[nodiscard]] const InEntry* inbound_before(int ep, double t) {
    if (!registered(ep)) return nullptr;
    const auto r = static_cast<std::size_t>(ep);
    const auto v = row(in_, in_off_, r);
    const std::size_t i = gallop(
        v, in_finger_[r], [t](const InEntry& a) { return a.key <= t; });
    return i == 0 ? nullptr : &v[i - 1];
  }

  const std::vector<Span>& spans_;
  std::size_t guard_;
  std::vector<int> ep_rank_;           // endpoint -> worker rank, or -1
  std::vector<int> rank_ep_;           // worker rank -> endpoint, or -1
  std::vector<std::size_t> busy_off_;  // per rank, for busy_ and ends_
  std::vector<BusyEntry> busy_, ends_;
  std::vector<std::size_t> in_off_;  // per endpoint
  std::vector<InEntry> in_;
  std::vector<std::size_t> busy_finger_, ends_finger_, in_finger_;
};

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
  for (const Span& s : log.spans()) {
    if (s.worker < 0 || s.worker >= num_workers) continue;
    const auto r = static_cast<std::size_t>(s.worker);
    horizon[r] = std::max(horizon[r], s.end);
    if ((s.phase == 0 || s.phase == 1) && s.end > s.start) {
      if (s.phase == 0) compute_total[r] += s.end - s.start;
      max_round[r] = std::max(max_round[r], s.round);
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(num_workers); ++r) {
    if (max_round[r] >= 0) {
      p.mean_iter_compute[r] =
          compute_total[r] / static_cast<double>(max_round[r] + 1);
    }
  }

  Index index(log, num_workers);

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
    const std::int64_t hint =
        std::max<std::int64_t>(max_round[static_cast<std::size_t>(start_rank)],
                               0);
    index.walk(index.endpoint_of(start_rank), 0.0, makespan, hint,
               [&](CostClass cls, int rank, std::int64_t round, double s) {
                 p.critical.add(cls, s);
                 if ((cls == CostClass::compute ||
                      cls == CostClass::local_agg) &&
                     rank >= 0 && rank < num_workers) {
                   p.cp_busy_by_rank[static_cast<std::size_t>(rank)] += s;
                 }
                 rounds[std::max<std::int64_t>(round, 0)].add(cls, s);
               });
  }
  p.rounds.reserve(rounds.size());
  for (const auto& [round, cls] : rounds) {
    p.rounds.push_back(RoundCost{round, cls});
  }

  // ---- Per-worker wall decomposition: own busy phases verbatim, gaps via
  // the same walk (other ranks' busy time maps to wait = straggler effect).
  // Every worker's busy time is added first; the gaps between its merged
  // busy intervals are then walked in global order of gap end. Each
  // p.workers[r] still sums its own gaps in their own order, so the totals
  // are bit-identical to walking worker by worker, while consecutive walks
  // query nearby times and keep the fingers warm.
  struct Gap {
    double lo, hi;
    int rank;
  };
  std::vector<Gap> gaps;
  for (int r = 0; r < num_workers; ++r) {
    ClassTotals& w = p.workers[static_cast<std::size_t>(r)];
    double cursor = 0.0;
    double end = kNegInf;  // end of the current merged busy interval
    auto add_gap = [&](double lo, double hi) {
      if (hi > lo) gaps.push_back(Gap{lo, hi, r});
    };
    for (const BusyEntry& b : index.busy_row(r)) {
      const Span& s = log.spans()[b.span];
      w.add(s.phase == 1 ? CostClass::local_agg : CostClass::compute,
            s.end - s.start);
      if (s.start <= end) {
        end = std::max(end, s.end);
        continue;
      }
      cursor = std::max(cursor, end);
      add_gap(cursor, s.start);
      end = s.end;
    }
    add_gap(std::max(cursor, end), horizon[static_cast<std::size_t>(r)]);
  }
  std::stable_sort(gaps.begin(), gaps.end(),
                   [](const Gap& a, const Gap& b) { return a.hi < b.hi; });
  for (const Gap& g : gaps) {
    const auto ri = static_cast<std::size_t>(g.rank);
    ClassTotals& w = p.workers[ri];
    index.walk(index.endpoint_of(g.rank), g.lo, g.hi,
               std::max<std::int64_t>(max_round[ri], 0),
               [&](CostClass cls, int rank, std::int64_t, double s) {
                 // Someone else's busy time on this worker's wait path.
                 const bool other_busy = (cls == CostClass::compute ||
                                          cls == CostClass::local_agg) &&
                                         rank != g.rank;
                 w.add(other_busy ? CostClass::wait : cls, s);
               });
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

std::string format_report(const RunProfile& p) {
  std::ostringstream os;
  os << "== critical-path bottleneck report ==\n";
  os << "makespan (virtual s): " << common::fmt(p.makespan, 6)
     << "   workers: " << p.num_workers << "   spans: " << p.num_spans
     << "   edges: " << p.num_edges << "\n";
  if (p.iterations_per_epoch > 0) {
    os << "iterations/epoch: " << p.iterations_per_epoch << "\n";
  }

  common::Table t("critical-path attribution");
  t.set_header({"class", "seconds", "share"});
  for (int c = 0; c < kNumCostClasses; ++c) {
    const auto cls = static_cast<CostClass>(c);
    t.add_row({cost_class_name(cls), common::fmt(p.critical.get(cls), 6),
               common::fmt_pct(p.share(cls))});
  }
  t.add_row({"total", common::fmt(p.critical.total(), 6),
             common::fmt_pct(p.makespan > 0.0
                                 ? p.critical.total() / p.makespan
                                 : 0.0)});
  t.print(os);

  // Top ranks by critical busy time.
  std::vector<int> order(p.cp_busy_by_rank.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&p](int a, int b) {
    return p.cp_busy_by_rank[static_cast<std::size_t>(a)] >
           p.cp_busy_by_rank[static_cast<std::size_t>(b)];
  });
  os << "top critical-path ranks:";
  const std::size_t top = std::min<std::size_t>(order.size(), 3);
  for (std::size_t i = 0; i < top; ++i) {
    const int r = order[i];
    os << (i == 0 ? " " : ", ") << "worker " << r << " ("
       << common::fmt(p.cp_busy_by_rank[static_cast<std::size_t>(r)], 4)
       << " s busy)";
  }
  os << "\n";

  os << "what-if (analytic upper bounds; zeroing one class of the computed "
        "path):\n";
  auto whatif = [&os, &p](const char* label, double saved) {
    os << "  " << label << " => -"
       << common::fmt_pct(p.makespan > 0.0 ? saved / p.makespan : 0.0)
       << " (-" << common::fmt(saved, 6) << " s)\n";
  };
  whatif("infinitely fast network ", p.whatif_fast_network);
  whatif("zero PS queueing/service", p.whatif_no_ps);
  whatif("no blocking waits       ", p.whatif_no_wait);
  if (p.straggler_rank >= 0) {
    const std::string label =
        "remove straggler (worker " + std::to_string(p.straggler_rank) + ")";
    whatif(label.c_str(), p.whatif_no_straggler);
  }
  return os.str();
}

}  // namespace dt::profile
