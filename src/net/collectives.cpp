#include "net/collectives.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/partition.hpp"

namespace dt::net {

// The chunk split lives in common/partition.hpp so FSDP and the sub-slot
// PS sharding plan carve ranges bit-identically to the ring collectives.
using common::chunk_range;
using ChunkRange = common::ChunkRange;

std::optional<Packet> recv_in_epoch(runtime::Process& self, Network& net,
                                    int endpoint, int tag, std::int64_t epoch,
                                    const AbortGuard* guard) {
  if (guard == nullptr) return net.recv(self, endpoint, tag);
  for (;;) {
    if (guard->fired()) return std::nullopt;
    std::optional<Packet> in =
        net.recv_until(self, endpoint, tag, self.now() + guard->poll_s);
    if (in.has_value() && in->c == epoch) return in;
  }
}

ElasticStatus ring_allreduce(runtime::Process& self, const Communicator& comm,
                             std::span<float> data,
                             std::uint64_t total_wire_bytes, int tag_base,
                             std::int64_t epoch, const AbortGuard* guard) {
  common::check(comm.net != nullptr && comm.size() > 0,
                "ring_allreduce: bad communicator");
  common::check(guard == nullptr || guard->poll_s > 0.0,
                "ring_allreduce: poll must be > 0");
  const int n = comm.size();
  if (n == 1) return {true};
  Network& net = *comm.net;
  const int me = comm.my_rank;
  const int my_ep = comm.my_endpoint();
  const int right_ep = comm.endpoints[static_cast<std::size_t>((me + 1) % n)];
  const common::ChunkBills bill(total_wire_bytes, n);

  // One ring step: send chunk `send_chunk` to the right neighbour, receive
  // chunk `recv_chunk` from the left one and add it into `data` (`add`) or
  // copy it over. False when the guard fired before the chunk arrived.
  const auto step = [&](int tag, int send_chunk, int recv_chunk, bool add) {
    Packet out;
    out.tag = tag;
    out.wire_bytes = bill(send_chunk);
    out.a = send_chunk;
    out.c = epoch;
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, send_chunk);
      out.emplace_payload().sparse_values.emplace_back(data.begin() + r.begin,
                                                       data.begin() + r.end);
    }
    net.send(self, my_ep, right_ep, std::move(out));

    std::optional<Packet> in = recv_in_epoch(self, net, my_ep, tag, epoch,
                                             guard);
    if (!in.has_value()) return false;
    common::check(in->a == recv_chunk, "ring_allreduce: chunk order violated");
    if (!data.empty()) {
      const ChunkRange r = chunk_range(data.size(), n, recv_chunk);
      const auto& vals = in->sparse_values(0);
      common::check(vals.size() == r.size(), "ring_allreduce: chunk size");
      if (add) {
        for (std::size_t i = 0; i < vals.size(); ++i) {
          data[r.begin + i] += vals[i];
        }
      } else {
        std::copy(vals.begin(), vals.end(), data.begin() + r.begin);
      }
    }
    return true;
  };

  // Step s sends chunk (me - s mod n) and receives chunk (me - s - 1 mod n),
  // so each step's received chunk is the next step's sent one. Reduce-
  // Scatter (steps 0..n-2): after step s, rank r holds the partial sum of
  // chunk (r - s - 1 mod n) over s+2 ranks, and after n-1 steps it owns the
  // fully reduced chunk (r + 1 mod n). All-Gather (steps n-1..2n-3) then
  // circulates the reduced chunks on the next tag.
  int send_chunk = me;
  int recv_chunk = me == 0 ? n - 1 : me - 1;
  for (int s = 0; s < 2 * (n - 1); ++s) {
    const bool reduce = s < n - 1;
    if (!step(reduce ? tag_base : tag_base + 1, send_chunk, recv_chunk,
              reduce)) {
      return {false};
    }
    send_chunk = recv_chunk;
    recv_chunk = recv_chunk == 0 ? n - 1 : recv_chunk - 1;
  }
  return {true};
}

int flush_stale_epochs(runtime::Process& self, Network& net, int endpoint,
                       int tag_region, std::int64_t epoch) {
  const int keep = epoch_tag_base(tag_region, epoch);
  int flushed = 0;
  for (int tag = tag_region; tag < tag_region + 2 * kEpochTagSpan; ++tag) {
    if (tag == keep || tag == keep + 1) continue;
    while (net.try_recv(self, endpoint, tag).has_value()) ++flushed;
  }
  return flushed;
}

void barrier(runtime::Process& self, const Communicator& comm, int tag_base) {
  common::check(comm.net != nullptr && comm.size() > 0, "barrier: bad comm");
  const int n = comm.size();
  if (n == 1) return;
  Network& net = *comm.net;
  const int enter_tag = tag_base;
  const int leave_tag = tag_base + 1;

  if (comm.my_rank == 0) {
    for (int i = 0; i < n - 1; ++i) {
      (void)net.recv(self, comm.my_endpoint(), enter_tag);
    }
    for (int r = 1; r < n; ++r) {
      Packet p;
      p.tag = leave_tag;
      p.wire_bytes = kControlBytes;
      net.send(self, comm.my_endpoint(),
               comm.endpoints[static_cast<std::size_t>(r)], std::move(p));
    }
  } else {
    Packet p;
    p.tag = enter_tag;
    p.wire_bytes = kControlBytes;
    net.send(self, comm.my_endpoint(), comm.endpoints[0], std::move(p));
    (void)net.recv(self, comm.my_endpoint(), leave_tag);
  }
}

}  // namespace dt::net
