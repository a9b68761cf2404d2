// The deterministic virtual-time network model connecting cluster nodes.
//
// Every ordered node pair is a link with a fixed propagation latency, a
// per-byte serialization cost, a bounded in-flight queue, and seeded loss /
// duplication. Transmit charges the sending node's CPU for the copy onto
// the wire, then posts a delivery event into the *destination* kernel's
// event queue at the arrival time computed against the sender's time
// frontier — the cluster driver's frontier arbitration (net/cluster.h)
// guarantees the destination clock has not passed that deadline, so
// arrival order is deterministic for a given seed.
//
// The bytes on the wire live in packet buffers the Network owns and
// recycles LIFO; a delivery event names its buffer by index (the event's
// `arg`, with the Network as its `ctx`). A buffer returns to the free list
// only after the destination's DeliverWire returns, because delivery may
// re-enter Transmit. So once the pool has grown to the peak number of
// packets in flight at once, a packet allocates nothing. Delivery events
// hold a pointer to the Network, so it must outlive every drain of the
// nodes' event queues; the Cluster, which owns both, guarantees that.
#ifndef MACHCONT_SRC_NET_LINK_H_
#define MACHCONT_SRC_NET_LINK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"

namespace mkc {

class NetIpc;

struct LinkConfig {
  Ticks latency = 2000;            // Propagation delay per packet.
  Ticks per_byte = 2;              // Serialization cost per payload byte.
  std::uint32_t drop_per_mille = 0;  // Chance a packet is silently lost.
  std::uint32_t dup_per_mille = 0;   // Chance a packet arrives twice.
  std::uint32_t reorder_per_mille = 0;  // Chance a packet is delayed past
                                        // later traffic (2× extra latency).
  std::size_t queue_limit = 64;      // Max in-flight packets per link.
};

class Network {
 public:
  Network(const LinkConfig& config, std::uint64_t seed, int nnodes);

  // Ships `len` bytes from `src`'s node to `dst`'s. The bytes are copied —
  // the caller's buffer (typically a zone kmsg held for retransmission) is
  // not referenced after return. Loss and queue overflow are silent here;
  // reliability is netipc's sequence/ack/retransmit protocol, not the wire's.
  void Transmit(NetIpc& src, NetIpc& dst, const std::byte* bytes, std::uint32_t len);

  const LinkConfig& config() const { return config_; }

  // Packet buffers the pool owns, in flight or free: its high-water mark.
  std::size_t packet_buffers() const { return packets_.size(); }

  // Test hook: changes the loss rate mid-run (e.g. to partition a node and
  // drive a lazy-OOL pull to exhaustion). Determinism across runs only
  // holds if both runs change the rate at the same point.
  void SetDropPerMille(std::uint32_t per_mille) {
    config_.drop_per_mille = per_mille;
  }

 private:
  std::size_t LinkIndex(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nnodes_) +
           static_cast<std::size_t>(dst);
  }

  struct Packet {
    std::vector<std::byte> bytes;  // Capacity is kept across reuses.
    NetIpc* dst = nullptr;
    int link = 0;
  };

  void Deliver(NetIpc& dst, const std::byte* bytes, std::uint32_t len, Ticks when,
               int link);
  static void Arrive(void* ctx, std::uint64_t packet);  // Delivery event.

  LinkConfig config_;
  int nnodes_;
  Rng rng_;  // Network randomness is its own stream, independent of any node.
  std::vector<std::size_t> in_flight_;  // Per ordered pair, indexed src*n+dst.
  std::vector<Packet> packets_;         // The pool, indexed by packet id.
  std::vector<std::uint32_t> free_packets_;  // LIFO: the warmest buffer first.
};

}  // namespace mkc

#endif  // MACHCONT_SRC_NET_LINK_H_
