// Endpoint packet queues of the network model.
//
// Every endpoint's queue is kept sorted by arrival time, FIFO among equal
// arrivals (send order). All queues draw their nodes from one shared pool:
// each queue is a doubly linked list of pool slots, and a taken or dropped
// packet's slot goes back on a free list for the next send. Once the pool
// has grown to the run's peak number of queued packets, sends and receives
// never touch the heap, and memory follows that global peak rather than
// the sum of every endpoint's own peak.
//
// Senders mostly append (arrivals are usually non-decreasing), so insertion
// walks back from the tail; receivers take the first packet matching a tag,
// which is usually the head, and may unlink from anywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace dt::net {

class Mailboxes {
 public:
  /// A queued packet's pool slot; stable until the packet is taken or
  /// dropped.
  using Slot = std::uint32_t;
  static constexpr Slot kNone = ~Slot{0};

  /// Adds an empty queue; returns its id (0, 1, ...).
  int add() {
    boxes_.emplace_back();
    return static_cast<int>(boxes_.size()) - 1;
  }

  /// Queues `p` after every packet of `box` with arrival <= p.arrival.
  void insert(int box, Packet p) {
    Box& b = boxes_[static_cast<std::size_t>(box)];
    const Slot s = acquire(std::move(p));
    const double arrival = nodes_[s].packet.arrival;
    Slot after = b.tail;
    while (after != kNone && nodes_[after].packet.arrival > arrival) {
      after = nodes_[after].prev;
    }
    Slot before = after == kNone ? b.head : nodes_[after].next;
    nodes_[s].prev = after;
    nodes_[s].next = before;
    (after == kNone ? b.head : nodes_[after].next) = s;
    (before == kNone ? b.tail : nodes_[before].prev) = s;
    ++b.size;
  }

  /// The earliest queued packet of `box` whose tag matches (any tag for
  /// kAnyTag), or kNone.
  [[nodiscard]] Slot find(int box, int tag) const {
    Slot s = boxes_[static_cast<std::size_t>(box)].head;
    while (s != kNone && tag != kAnyTag && nodes_[s].packet.tag != tag) {
      s = nodes_[s].next;
    }
    return s;
  }

  /// The packet in slot `s`. The reference is invalidated by the next
  /// insert.
  [[nodiscard]] const Packet& at(Slot s) const { return nodes_[s].packet; }

  /// Unlinks slot `s` from `box` and returns its packet.
  Packet take(int box, Slot s) {
    Box& b = boxes_[static_cast<std::size_t>(box)];
    Node& n = nodes_[s];
    (n.prev == kNone ? b.head : nodes_[n.prev].next) = n.next;
    (n.next == kNone ? b.tail : nodes_[n.next].prev) = n.prev;
    --b.size;
    Packet out = std::move(n.packet);
    release(s);
    return out;
  }

  /// Drops every packet queued at `box`; returns how many.
  std::size_t clear(int box) {
    Box& b = boxes_[static_cast<std::size_t>(box)];
    const std::size_t dropped = b.size;
    for (Slot s = b.head; s != kNone;) {
      const Slot next = nodes_[s].next;
      nodes_[s].packet = Packet{};  // release a shared payload now
      release(s);
      s = next;
    }
    b = Box{};
    return dropped;
  }

  [[nodiscard]] std::size_t size(int box) const {
    return boxes_[static_cast<std::size_t>(box)].size;
  }

 private:
  struct Node {
    Packet packet;
    Slot prev = kNone;
    Slot next = kNone;  // also links the free list
  };
  struct Box {
    Slot head = kNone;
    Slot tail = kNone;
    std::size_t size = 0;
  };

  Slot acquire(Packet&& p) {
    if (free_ == kNone) {
      nodes_.push_back(Node{std::move(p)});
      return static_cast<Slot>(nodes_.size() - 1);
    }
    const Slot s = free_;
    free_ = nodes_[s].next;
    nodes_[s].packet = std::move(p);
    return s;
  }

  void release(Slot s) {
    nodes_[s].next = free_;
    free_ = s;
  }

  std::vector<Node> nodes_;  // the pool: queued packets and free slots
  std::vector<Box> boxes_;
  Slot free_ = kNone;
};

}  // namespace dt::net
