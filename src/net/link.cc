#include "src/net/link.h"

#include "src/base/vclock.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/net/netipc.h"

namespace mkc {

Network::Network(const LinkConfig& config, std::uint64_t seed, int nnodes)
    : config_(config), nnodes_(nnodes) , rng_(seed) {
  in_flight_.assign(static_cast<std::size_t>(nnodes) * static_cast<std::size_t>(nnodes), 0);
}

void Network::Transmit(NetIpc& src, NetIpc& dst, const std::byte* bytes,
                       std::uint32_t len) {
  Kernel& sk = src.kernel();
  NetStats& st = src.stats();

  // Copying the packet onto the wire is the sending node's machine time,
  // costed like any other message copy.
  const std::uint64_t words = len / 8 + 2;
  sk.cost_model().Account(CostOp::kMsgCopy, words, words);
  sk.ChargeCycles(kCycMsgCopyBase + words * kCycMsgCopyPerWord);

  ++st.packets_tx;
  st.bytes_tx += len;

  const int link = static_cast<int>(LinkIndex(src.node_id(), dst.node_id()));
  if (in_flight_[static_cast<std::size_t>(link)] >= config_.queue_limit) {
    ++st.queue_full;  // Link queue overflow: drop at the NIC.
    return;
  }
  if (config_.drop_per_mille > 0 && rng_.Chance(config_.drop_per_mille)) {
    ++st.drops;
    return;
  }

  // A reordered packet takes the slow path: two extra propagation delays,
  // enough for later traffic on the same link to overtake it. The roll is
  // gated on the rate so legacy configs consume an identical RNG sequence.
  Ticks extra = 0;
  if (config_.reorder_per_mille > 0 && rng_.Chance(config_.reorder_per_mille)) {
    ++st.reorders;
    extra = 2 * config_.latency;
  }

  // Arrival is computed against the sender's whole-machine frontier: the
  // packet cannot arrive before it finished being sent.
  const Ticks when = sk.VirtualTime() + config_.latency + config_.per_byte * len + extra;
  Deliver(dst, bytes, len, when, link);
  if (config_.dup_per_mille > 0 && rng_.Chance(config_.dup_per_mille) &&
      in_flight_[static_cast<std::size_t>(link)] < config_.queue_limit) {
    ++st.dups;
    Deliver(dst, bytes, len, when + 1, link);
  }
}

void Network::Deliver(NetIpc& dst, const std::byte* bytes, std::uint32_t len,
                      Ticks when, int link) {
  std::uint32_t id;
  if (free_packets_.empty()) {
    id = static_cast<std::uint32_t>(packets_.size());
    packets_.emplace_back();
  } else {
    id = free_packets_.back();
    free_packets_.pop_back();
  }
  Packet& p = packets_[id];
  p.bytes.assign(bytes, bytes + len);
  p.dst = &dst;
  p.link = link;
  ++in_flight_[static_cast<std::size_t>(link)];
  dst.kernel().events().Post(when, &Network::Arrive, this, id);
}

void Network::Arrive(void* ctx, std::uint64_t packet) {
  auto* net = static_cast<Network*>(ctx);
  const auto id = static_cast<std::uint32_t>(packet);
  const Packet& p = net->packets_[id];
  --net->in_flight_[static_cast<std::size_t>(p.link)];
  // DeliverWire may re-enter Transmit and grow packets_, which moves `p` but
  // never its byte buffer; the buffer stays off the free list until the
  // delivery returns.
  p.dst->DeliverWire(p.bytes.data(), static_cast<std::uint32_t>(p.bytes.size()));
  net->free_packets_.push_back(id);
}

}  // namespace mkc
