// Pluggable low-power bus codec interface (ROADMAP item 4).
//
// A BusCodec sits at the master/slave boundary of the layer-1 bus: it
// transforms the words the bus actually drives on the wires *before*
// the transition-accurate power model sees them, and transforms them
// back before the functional side consumes them. The bus calls the
// codec from its phases:
//
//   address phase:  wire = encodeAddress(payload addr)
//                   slave routing uses decodeAddress(wire) — a real
//                   round trip, so a broken codec breaks correctness,
//                   not just the energy numbers.
//   write beat:     wire = encodeWrite(payload); slave receives
//                   decodeWrite(wire); on beat completion (Ok) the bus
//                   calls commitWrite(wire) to advance codec state.
//   read beat:      slave produces the payload; wire =
//                   encodeRead(payload); master receives
//                   decodeRead(wire); commitRead(wire) on Ok.
//
// The encode*/commit* split exists because a slave may stretch a data
// phase with Wait states: the wire is not driven that cycle, so a
// stateful codec (bus-invert) must not advance its last-driven-word
// history. The bus therefore *peeks* the encoding every poll cycle and
// commits exactly once, when the beat completes with Ok. Error beats
// never drive the data wires and are never committed.
//
// Codecs may signal a word-level inversion through EncodedWord::invert;
// the bus forwards it to the power model as the EB_Inv sideband bundle
// (one invert line per data bus), so the control-line overhead of
// bus-invert style codes is part of the energy picture, as it must be.
//
// Stateful codecs participate in checkpointing: Tl1Bus does NOT
// serialize the codec (it is exploration configuration, swapped per
// variant), but a codec registered with a CheckpointRegistry via the
// explicit-version add() overload restores bit-identically through
// saveState/loadState below.
//
// This header lives in bus/ (like Tl1Observer) so the bus can call the
// codec without depending on src/enc/; the concrete codecs live in the
// enc library.
#ifndef SCT_BUS_BUS_CODEC_H
#define SCT_BUS_BUS_CODEC_H

#include <cstdint>
#include <string_view>

#include "bus/ec_types.h"
#include "ckpt/state_io.h"

namespace sct::bus {

/// A data word as driven on the wires: the (possibly transformed) word
/// plus the level of the channel's EB_Inv sideband line.
struct EncodedWord {
  Word wire = 0;
  bool invert = false;
};

class BusCodec {
 public:
  virtual ~BusCodec() = default;

  virtual std::string_view name() const = 0;

  // -- Address bus -----------------------------------------------------
  /// Transform the payload address into the word driven on EB_A. Must
  /// be invertible via decodeAddress. Address codecs are memoryless
  /// (the address phase has no per-channel history in this interface).
  virtual std::uint64_t encodeAddress(Address a) const {
    return static_cast<std::uint64_t>(a);
  }
  virtual Address decodeAddress(std::uint64_t wire) const {
    return static_cast<Address>(wire);
  }

  // -- Write-data bus (master -> slave) --------------------------------
  /// Peek the encoding of `payload` against the current channel state.
  /// Must be side-effect free: the bus re-peeks on every Wait-stretched
  /// poll cycle.
  virtual EncodedWord encodeWrite(Word payload) const {
    return {payload, false};
  }
  /// Advance channel state after the beat completed with Ok and `e`
  /// (the result of encodeWrite) was actually driven.
  virtual void commitWrite(const EncodedWord& /*e*/) {}
  virtual Word decodeWrite(const EncodedWord& e) const { return e.wire; }

  // -- Read-data bus (slave -> master) ---------------------------------
  virtual EncodedWord encodeRead(Word payload) const {
    return {payload, false};
  }
  virtual void commitRead(const EncodedWord& /*e*/) {}
  virtual Word decodeRead(const EncodedWord& e) const { return e.wire; }

  // -- Checkpoint section body (register via the explicit-version
  // CheckpointRegistry::add overload, passing ckptVersion()) -----------
  virtual std::uint32_t ckptVersion() const { return 1; }
  virtual void saveState(ckpt::StateWriter& /*w*/) const {}
  virtual void loadState(ckpt::StateReader& /*r*/) {}
};

} // namespace sct::bus

#endif // SCT_BUS_BUS_CODEC_H
