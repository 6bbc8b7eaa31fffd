// FSDP / ZeRO sharded data parallelism (extension beyond the paper; see
// docs/memory-model.md and docs/algorithms.md, "FSDP").
//
// The model's parameters are split into one near-equal contiguous flat
// range per worker rank (Session::fsdp_plan, built on common::chunk_range —
// the same split the ring collectives use). Every rank is both a worker
// and the "owner" of its range: each round the ranks reduce-scatter
// gradients to the owners (each owner sums the N contributions for its
// range in canonical rank order and runs the momentum step there), then
// the updated ranges are all-gathered back. What varies by ZeRO stage is
// which state stays sharded between rounds:
//
//   stage 1  optimizer state sharded; full params + grads resident
//   stage 2  + gradients sharded (full layer grad transient during its
//            backward step, then reduced away)
//   stage 3  + parameters sharded: each layer is all-gathered right before
//            its forward / backward step and released right after
//
// Stages 1 and 2 apply mathematically — and, with arrival order pinned,
// bitwise — the same update as BSP: sum over ranks in rank order, scale by
// 1/N, momentum step per element (tests/test_golden.cpp pins this).
// Memory is charged to Session::mem_ledger: static shards at t=0 (see
// Session::init_memory), transient gather/unshard and reduction buffers
// from this file.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/algo_common.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "memory/ledger.hpp"
#include "metrics/metrics.hpp"
#include "net/packet.hpp"
#include "nn/optimizer.hpp"
#include "ps/sharding.hpp"
#include "tensor/tensor.hpp"

namespace dt::core {

namespace {

using metrics::Phase;
using metrics::PhaseTimer;
using net::Packet;

/// Stage-3 gather tag: base + 4*slot + 2*phase + round parity (see
/// core/protocol.hpp, kTagFsdpGather).
int gather_tag(std::size_t slot, int phase, int parity) {
  return kTagFsdpGather + 4 * static_cast<int>(slot) + 2 * phase + parity;
}

/// Precomputed shared schedule: who owns what, per slot and in total.
struct FsdpSchedule {
  int n = 1;
  std::size_t num_slots = 0;
  std::vector<std::uint64_t> slot_bytes;           // slot -> wire bytes
  std::vector<std::uint64_t> owned_bytes;          // rank -> total wire bytes
  std::vector<std::uint64_t> owned_elems;          // rank -> total elements
  std::vector<std::vector<std::uint64_t>> in_slot; // [rank][slot] wire bytes
  std::vector<std::vector<int>> slot_owners;       // slot -> owning ranks
  std::vector<double> slot_share;                  // normalized bwd share

  static FsdpSchedule build(const Session& s) {
    FsdpSchedule sc;
    sc.n = s.cfg.num_workers;
    sc.num_slots = s.wl.num_slots();
    sc.owned_bytes = s.fsdp_plan.shard_bytes;
    sc.owned_elems = s.fsdp_plan.shard_elems;
    sc.slot_bytes.resize(sc.num_slots);
    for (std::size_t k = 0; k < sc.num_slots; ++k) {
      sc.slot_bytes[k] = s.wl.slot_wire_bytes(k);
    }
    sc.in_slot.assign(static_cast<std::size_t>(sc.n),
                      std::vector<std::uint64_t>(sc.num_slots, 0));
    sc.slot_owners.assign(sc.num_slots, {});
    for (int r = 0; r < sc.n; ++r) {
      for (const ps::SlotRange& piece :
           s.fsdp_plan.shard_ranges[static_cast<std::size_t>(r)]) {
        sc.in_slot[static_cast<std::size_t>(r)][piece.slot] +=
            ps::FlatShardingPlan::range_wire_bytes(
                sc.slot_bytes[piece.slot],
                static_cast<std::size_t>(s.wl.slot_numel(piece.slot)),
                piece.begin, piece.end);
        sc.slot_owners[piece.slot].push_back(r);
      }
    }
    double nominal = 0.0;
    sc.slot_share.resize(sc.num_slots);
    for (std::size_t k = 0; k < sc.num_slots; ++k) {
      sc.slot_share[k] = s.wl.backward_slot_time(k);
      nominal += sc.slot_share[k];
    }
    for (double& v : sc.slot_share) {
      v = nominal > 0.0 ? v / nominal
                        : 1.0 / static_cast<double>(sc.num_slots);
    }
    return sc;
  }

  [[nodiscard]] std::uint64_t others_in_slot(int rank,
                                             std::size_t slot) const {
    return slot_bytes[slot] - in_slot[static_cast<std::size_t>(rank)][slot];
  }
  [[nodiscard]] int expected_gathers(int rank, std::size_t slot) const {
    int count = 0;
    for (int o : slot_owners[slot]) count += o != rank ? 1 : 0;
    return count;
  }
};

/// Flattens the values of `rank`'s replica over owner `owner`'s flat range
/// (slot-ordered pieces), from params or gradients.
std::vector<float> flatten_range(const Session& s, int rank, int owner,
                                 bool params) {
  std::vector<float> flat;
  flat.reserve(static_cast<std::size_t>(
      s.fsdp_plan.shard_elems[static_cast<std::size_t>(owner)]));
  for (const ps::SlotRange& piece :
       s.fsdp_plan.shard_ranges[static_cast<std::size_t>(owner)]) {
    const tensor::Tensor& t = params ? s.wl.param_slot(rank, piece.slot)
                                     : s.wl.grad_slot(rank, piece.slot);
    const auto& data = t.data();
    flat.insert(flat.end(), data.begin() + static_cast<std::ptrdiff_t>(piece.begin),
                data.begin() + static_cast<std::ptrdiff_t>(piece.end));
  }
  return flat;
}

/// Writes flat values (owner `owner`'s range) into `rank`'s replica params.
void scatter_range(Session& s, int rank, int owner,
                   const std::vector<float>& flat) {
  std::size_t off = 0;
  for (const ps::SlotRange& piece :
       s.fsdp_plan.shard_ranges[static_cast<std::size_t>(owner)]) {
    tensor::Tensor t = s.wl.param_slot(rank, piece.slot);
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + piece.numel()),
              t.data().begin() + static_cast<std::ptrdiff_t>(piece.begin));
    s.wl.set_param_slot(rank, piece.slot, t);
    off += piece.numel();
  }
}

}  // namespace

void launch_fsdp(Session& s) {
  const int n = s.cfg.num_workers;
  const int stage = s.cfg.opt.zero_stage;
  const float inv_n = 1.0f / static_cast<float>(n);
  const auto sched = std::make_shared<FsdpSchedule>(FsdpSchedule::build(s));

  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, n, stage, inv_n, sched](runtime::Process& self) {
          using memory::Category;
          const FsdpSchedule& sc = *sched;
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          const bool fn = s.wl.functional();
          const std::int64_t iters = s.iterations_per_worker();
          const auto& my_ranges =
              s.fsdp_plan.shard_ranges[static_cast<std::size_t>(rank)];
          const std::uint64_t owned =
              sc.owned_bytes[static_cast<std::size_t>(rank)];
          const int right_ep =
              s.worker_ep[static_cast<std::size_t>((rank + 1) % n)];
          const std::uint64_t avg_piece =
              std::max<std::uint64_t>(1, s.wl.total_wire_bytes() /
                                             static_cast<std::uint64_t>(n));

          // Owner-side state: momentum per owned piece, and the round's
          // staged contributions by sender rank (summed in rank order, so
          // the result never depends on arrival order).
          nn::MomentumSgd opt(s.cfg.sgd);
          std::vector<std::vector<float>> staged(
              static_cast<std::size_t>(n));

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              // Stall semantics: no peer can close this round without our
              // contribution, so the cluster freezes with us and no state
              // moves while we are down — resume in place (warm reboot;
              // the mailbox is NOT drained, it holds valid round traffic).
              s.take_crash(self, rank);
            }
            const double epoch = s.epoch_of(it);
            const float lr = static_cast<float>(s.lr_at(epoch));
            const int parity = static_cast<int>(it & 1);

            double loss = 0.0;
            const double fwd =
                s.fault_stretch(self, rank, s.wl.forward_time(rng));

            if (stage >= 3) {
              // ---- layer-by-layer parameter all-gather + forward -------
              for (std::size_t k = 0; k < sc.num_slots; ++k) {
                const std::uint64_t mine =
                    sc.in_slot[static_cast<std::size_t>(rank)][k];
                if (mine > 0 && n > 1) {
                  std::vector<float> piece_vals;
                  if (fn) {
                    // Our updated shard values inside slot k.
                    for (const ps::SlotRange& piece : my_ranges) {
                      if (piece.slot != k) continue;
                      const auto& data = s.wl.param_slot(rank, k).data();
                      piece_vals.assign(
                          data.begin() +
                              static_cast<std::ptrdiff_t>(piece.begin),
                          data.begin() +
                              static_cast<std::ptrdiff_t>(piece.end));
                    }
                  }
                  for (int q = 0; q < n; ++q) {
                    if (q == rank) continue;
                    Packet pkt;
                    pkt.tag = gather_tag(k, /*phase=*/0, parity);
                    pkt.a = rank;
                    pkt.b = static_cast<std::int64_t>(k);
                    pkt.c = it;
                    pkt.wire_bytes = mine;
                    if (fn) {
                      pkt.emplace_payload().sparse_values.push_back(
                          piece_vals);
                    }
                    s.network->send(
                        self, wep,
                        s.worker_ep[static_cast<std::size_t>(q)],
                        std::move(pkt));
                  }
                }
                const int expected = sc.expected_gathers(rank, k);
                const std::uint64_t others = sc.others_in_slot(rank, k);
                s.mem_ledger.alloc(rank, Category::gather, others,
                                   self.now());
                if (expected > 0) {
                  const double t0 = self.now();
                  for (int i = 0; i < expected; ++i) {
                    Packet p = s.network->recv(
                        self, wep, gather_tag(k, /*phase=*/0, parity));
                    if (fn) {
                      // The sender's single contiguous piece of slot k.
                      const int o = static_cast<int>(p.a);
                      std::size_t off = 0;
                      for (const ps::SlotRange& piece :
                           s.fsdp_plan
                               .shard_ranges[static_cast<std::size_t>(o)]) {
                        if (piece.slot != k) continue;
                        tensor::Tensor t = s.wl.param_slot(rank, k);
                        const auto& vals = p.sparse_values(0);
                        std::copy(
                            vals.begin(), vals.end(),
                            t.data().begin() +
                                static_cast<std::ptrdiff_t>(piece.begin));
                        s.wl.set_param_slot(rank, k, t);
                        (void)off;
                      }
                    }
                  }
                  const double est =
                      static_cast<double>(expected) *
                      s.uncontended_time(
                          std::max<std::uint64_t>(
                              1, others / static_cast<std::uint64_t>(
                                             std::max(1, expected))),
                          wep, right_ep);
                  account_window(self, wm, t0, est, sync);
                }
                {
                  PhaseTimer t(self, wm, Phase::compute);
                  const double share = fwd * sc.slot_share[k];
                  if (fn && k + 1 == sc.num_slots) {
                    // All layers gathered: run the real numerics on the
                    // host pool over the last layer's forward share.
                    self.advance_compute(share, [&s, &loss, rank] {
                      loss = s.wl.compute_gradients(rank);
                    });
                  } else {
                    self.advance(share);
                  }
                }
                s.mem_ledger.release(rank, Category::gather, others,
                                     self.now());
              }

              // ---- backward, re-gathering each layer (reverse order) ---
              const double bwd =
                  s.fault_stretch(self, rank, s.wl.backward_time(rng));
              for (std::size_t k = sc.num_slots; k-- > 0;) {
                const std::uint64_t mine =
                    sc.in_slot[static_cast<std::size_t>(rank)][k];
                if (mine > 0 && n > 1) {
                  // Cost-only re-gather: peers already hold the values
                  // (replicas are not actually dropped between the forward
                  // and backward of one round), so only the wire transfer
                  // is modeled.
                  for (int q = 0; q < n; ++q) {
                    if (q == rank) continue;
                    Packet pkt;
                    pkt.tag = gather_tag(k, /*phase=*/1, parity);
                    pkt.a = rank;
                    pkt.b = static_cast<std::int64_t>(k);
                    pkt.c = it;
                    pkt.wire_bytes = mine;
                    s.network->send(
                        self, wep,
                        s.worker_ep[static_cast<std::size_t>(q)],
                        std::move(pkt));
                  }
                }
                const int expected = sc.expected_gathers(rank, k);
                const std::uint64_t others = sc.others_in_slot(rank, k);
                // Unsharded layer params + the full layer gradient are
                // both resident during this layer's backward step.
                s.mem_ledger.alloc(rank, Category::gather, others,
                                   self.now());
                s.mem_ledger.alloc(rank, Category::grads, others,
                                   self.now());
                if (expected > 0) {
                  const double t0 = self.now();
                  for (int i = 0; i < expected; ++i) {
                    (void)s.network->recv(self, wep,
                                          gather_tag(k, /*phase=*/1, parity));
                  }
                  const double est =
                      static_cast<double>(expected) *
                      s.uncontended_time(
                          std::max<std::uint64_t>(
                              1, others / static_cast<std::uint64_t>(
                                             std::max(1, expected))),
                          wep, right_ep);
                  account_window(self, wm, t0, est, sync);
                }
                {
                  PhaseTimer t(self, wm, Phase::compute);
                  self.advance(bwd * sc.slot_share[k]);
                }
                s.mem_ledger.release(rank, Category::gather, others,
                                     self.now());
                s.mem_ledger.release(rank, Category::grads, others,
                                     self.now());
              }
            } else {
              // ---- stages 1-2: full-model forward + backward -----------
              PhaseTimer t(self, wm, Phase::compute);
              if (fn) {
                self.advance_compute(fwd, [&s, &loss, rank] {
                  loss = s.wl.compute_gradients(rank);
                });
              } else {
                self.advance(fwd);
              }
              const double bwd =
                  s.fault_stretch(self, rank, s.wl.backward_time(rng));
              if (stage >= 2) {
                // Per-layer backward: the full layer gradient is transient
                // (reduced to the shard right after the layer's step).
                for (std::size_t k = sc.num_slots; k-- > 0;) {
                  const std::uint64_t others = sc.others_in_slot(rank, k);
                  s.mem_ledger.alloc(rank, Category::grads, others,
                                     self.now());
                  self.advance(bwd * sc.slot_share[k]);
                  s.mem_ledger.release(rank, Category::grads, others,
                                       self.now());
                }
              } else {
                self.advance(bwd);
              }
            }

            // ---- gradient reduce-scatter + owner update ----------------
            const double t0 = self.now();
            // Owner-side reduction buffer for our range.
            s.mem_ledger.alloc(rank, Category::gather, owned, self.now());
            for (int o = 0; o < n; ++o) {
              if (o == rank) {
                if (fn) {
                  staged[static_cast<std::size_t>(o)] =
                      flatten_range(s, rank, rank, /*params=*/false);
                }
                continue;
              }
              Packet pkt;
              pkt.tag = kTagFsdpGrad + parity;
              pkt.a = rank;
              pkt.c = it;
              pkt.wire_bytes = sc.owned_bytes[static_cast<std::size_t>(o)];
              if (fn) {
                pkt.emplace_payload().sparse_values.push_back(
                    flatten_range(s, rank, o, /*params=*/false));
              }
              s.network->send(self, wep,
                              s.worker_ep[static_cast<std::size_t>(o)],
                              std::move(pkt));
            }
            for (int i = 0; i < n - 1; ++i) {
              Packet p = s.network->recv(self, wep, kTagFsdpGrad + parity);
              self.advance(s.wl.agg_time(p.wire_bytes));
              if (fn) {
                const auto& vals = p.sparse_values(0);
                staged[static_cast<std::size_t>(p.a)].assign(vals.begin(),
                                                             vals.end());
              }
            }
            if (fn) {
              // Canonical rank-order sum (BSP's arrival order with ordered
              // arrivals — the bitwise-equivalence pin), then the PS-style
              // scaled momentum step per owned piece.
              std::vector<float> sum(
                  static_cast<std::size_t>(
                      sc.owned_elems[static_cast<std::size_t>(rank)]),
                  0.0f);
              for (int q = 0; q < n; ++q) {
                const auto& contrib = staged[static_cast<std::size_t>(q)];
                for (std::size_t j = 0; j < sum.size(); ++j) {
                  sum[j] += contrib[j];
                }
              }
              std::size_t off = 0;
              std::size_t piece_idx = 0;
              for (const ps::SlotRange& piece : my_ranges) {
                // Mirrors ps::ShardState::apply_dense: scaled copy of the
                // summed gradient, then the shared step_slot kernel.
                std::vector<float> scaled(
                    sum.begin() + static_cast<std::ptrdiff_t>(off),
                    sum.begin() +
                        static_cast<std::ptrdiff_t>(off + piece.numel()));
                for (float& v : scaled) v *= inv_n;
                tensor::Tensor t = s.wl.param_slot(rank, piece.slot);
                opt.step_slot(
                    piece_idx,
                    std::span<float>(t.data().data() + piece.begin,
                                     piece.numel()),
                    scaled, lr);
                s.wl.set_param_slot(rank, piece.slot, t);
                off += piece.numel();
                ++piece_idx;
              }
            } else {
              self.advance(s.wl.agg_time(owned));
            }
            s.mem_ledger.release(rank, Category::gather, owned, self.now());

            // ---- parameter all-gather --------------------------------
            // Stages 1-2 re-materialize the full parameters every round.
            // Stage 3 keeps them sharded (the next round's pre-forward
            // gather distributes them lazily) — except after the final
            // round, where one last all-gather plays the role of the
            // unshard-for-checkpoint so every replica ends identical.
            const bool gather_params = stage < 3 || it + 1 == iters;
            if (gather_params && n > 1) {
              std::vector<float> mine_flat;
              if (fn) mine_flat = flatten_range(s, rank, rank, true);
              for (int q = 0; q < n; ++q) {
                if (q == rank) continue;
                Packet pkt;
                pkt.tag = kTagFsdpParam + parity;
                pkt.a = rank;
                pkt.c = it;
                pkt.wire_bytes = owned;
                if (fn) {
                  pkt.emplace_payload().sparse_values.push_back(mine_flat);
                }
                s.network->send(self, wep,
                                s.worker_ep[static_cast<std::size_t>(q)],
                                std::move(pkt));
              }
              std::vector<float> flat;
              for (int i = 0; i < n - 1; ++i) {
                Packet p = s.network->recv(self, wep,
                                           kTagFsdpParam + parity);
                if (fn) {
                  const auto& vals = p.sparse_values(0);
                  flat.assign(vals.begin(), vals.end());
                  scatter_range(s, static_cast<int>(rank),
                                static_cast<int>(p.a), flat);
                }
              }
            }
            const double est =
                (gather_params ? 2.0 : 1.0) * static_cast<double>(n - 1) *
                s.uncontended_time(avg_piece, wep, right_ep);
            account_window(self, wm, t0, est, sync);

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          s.mark_finished(rank, self.now());
        });
  }
}

}  // namespace dt::core
