#include "bus/tl2_bridge.h"

#include <cassert>

namespace sct::bus {

void Tl2MasterBridge::copyOut(Tl1Request& req, Slot& s, BusStatus status) {
  if (status == BusStatus::Ok && req.kind != Kind::Write) {
    if (req.burst() || req.size == AccessSize::Word) {
      std::memcpy(req.data.data(), s.buffer.data(), s.lower.bytes);
    } else {
      // The layer-1 read bus presents sub-word data on its natural
      // lanes; shift the byte-exact layer-2 payload into place.
      Word w = 0;
      std::memcpy(&w, s.buffer.data(), s.lower.bytes);
      const unsigned lane = static_cast<unsigned>(req.address & 0x3u);
      req.data[0] = w << (8 * lane);
    }
  }
  req.beatsDone = req.beats;
  req.result = status;
}

void Tl2MasterBridge::sync() {
  if (pending_.empty()) return;
  // An observer-free event-driven lower bus defers its completion
  // bookkeeping; asking for the next finish brings it current (O(1)
  // when it already is) before trusting the published stages.
  if (stagePublishing_) lower_.nextFinishCycle();
  postFinished();
}

void Tl2MasterBridge::postFinished() {
  // Compact the in-flight list in place, keeping issue order.
  std::size_t kept = 0;
  for (Slot* s : pending_) {
    if (s->lower.stage != Tl2Stage::Finished) {
      pending_[kept++] = s;
      continue;
    }
    Tl1Request& req = *s->owner;
    copyOut(req, *s, callLower(*s));
    req.stage = Tl1Stage::Finished;
    free_.push_back(s);
  }
  pending_.resize(kept);
}

void Tl2MasterBridge::reset() {
  sync();
  // With an idle lower bus every slot's lower transaction has finished,
  // so sync() has posted all of them and released their slots. Anything
  // left would still be referenced by the lower bus and cannot be torn
  // down safely.
  assert(pending_.empty() && "reset() requires an idle lower bus");
}

BusStatus Tl2MasterBridge::submit(Tl1Request& req) {
  if (free_.empty()) free_.push_back(&pool_.emplace_back());
  Slot& s = *free_.back();
  s.lower = Tl2Request{};
  s.lower.kind = req.kind;
  s.lower.address = req.address;
  s.lower.bytes = req.byteCount();
  s.lower.data = s.buffer.data();
  if (req.kind == Kind::Write) {
    if (req.burst() || req.size == AccessSize::Word) {
      std::memcpy(s.buffer.data(), req.data.data(), s.lower.bytes);
    } else {
      // Sub-word stores arrive lane-aligned on the layer-1 write bus;
      // extract the active lanes for the byte-exact layer-2 transfer.
      const unsigned lane = static_cast<unsigned>(req.address & 0x3u);
      std::memcpy(s.buffer.data(),
                  reinterpret_cast<const std::uint8_t*>(req.data.data()) +
                      lane,
                  s.lower.bytes);
    }
  }
  const BusStatus status = callLower(s);
  if (status == BusStatus::Error) {
    req.result = BusStatus::Error;
    return BusStatus::Error;
  }
  if (status != BusStatus::Request) {
    // Accept refused (outstanding limit); the slot stays free and the
    // submit is retried transparently on the next poll.
    return BusStatus::Wait;
  }
  free_.pop_back();
  s.owner = &req;
  pending_.push_back(&s);
  req.stage = Tl1Stage::Requested;
  req.result = BusStatus::Wait;
  return BusStatus::Request;
}

BusStatus Tl2MasterBridge::transport(Tl1Request& req) {
  const auto it = find(req);
  if (it == pending_.end()) {
    if (req.stage == Tl1Stage::Finished) {
      // sync() posted the result; this poll is the pickup.
      const BusStatus result = req.result;
      req.stage = Tl1Stage::Idle;
      return result;
    }
    // First call: validate like the layer-1 bus would, then open a
    // layer-2 transaction.
    if (req.stage != Tl1Stage::Idle) return BusStatus::Wait;
    const bool alignedOk =
        req.burst() ? (req.size == AccessSize::Word &&
                       isAligned(AccessSize::Word, req.address))
                    : isAligned(req.size, req.address);
    if (req.beats == 0 || req.beats > kMaxBurstBeats || !alignedOk ||
        (req.address & ~kAddressMask) != 0) {
      req.result = BusStatus::Error;
      return BusStatus::Error;
    }
    return submit(req);
  }

  Slot& s = **it;
  if (req.stage == Tl1Stage::Idle) {
    // The master abandoned this payload (Tl1Request::reset()) while its
    // previous transaction was still in flight and is now re-submitting
    // the same object. Finish the abandoned lower transaction out
    // before accepting the payload anew — answering from the stale slot
    // would hand the master a result it never asked for.
    if (stagePublishing_ && s.lower.stage != Tl2Stage::Finished) {
      lower_.nextFinishCycle();
    }
    const BusStatus stale = callLower(s);
    if (stale != BusStatus::Ok && stale != BusStatus::Error) {
      return BusStatus::Wait;  // Old transaction still draining.
    }
    pending_.erase(it);
    free_.push_back(&s);
    return transport(req);  // Re-enter as a fresh submit.
  }

  // Poll the lower transaction. When the lower bus publishes its stage
  // transitions (an event-driven Tl2Bus moves the payload to Finished
  // from its own process), a poll before that point is a guaranteed
  // side-effect-free Wait — skip the virtual round trip entirely; the
  // cycle-true master above polls every cycle regardless.
  if (stagePublishing_ && s.lower.stage != Tl2Stage::Finished) {
    // An observer-free event-driven lower bus defers its completion
    // bookkeeping; asking for the next finish brings it current (O(1)
    // when it already is) before trusting the published stage.
    lower_.nextFinishCycle();
    if (s.lower.stage != Tl2Stage::Finished) return BusStatus::Wait;
  }
  const BusStatus status = callLower(s);
  if (status != BusStatus::Ok && status != BusStatus::Error) {
    return BusStatus::Wait;
  }
  copyOut(req, s, status);
  req.stage = Tl1Stage::Idle;
  pending_.erase(it);
  free_.push_back(&s);
  return status;
}

} // namespace sct::bus
