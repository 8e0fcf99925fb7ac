// Bus-interface energy in fixed point.
//
// The layer-1 and layer-2 models multiply integer transition counts by
// one average energy per signal (paper, Section 3.3). Energy holds both
// those coefficients and every sum of their products as an exact
// integer count of 2^-16 fJ, so addition associates: the power models,
// the attribution ledger and per-session deltas add the same terms in
// any order and grouping and get the same bits. Precision is lost in
// one place only — fromFj(), where a characterized coefficient enters.
// A quantum is 1.5e-5 fJ, far below the 0.1 % resolution the paper's
// tables print, and an int64 holds ~1.4e14 fJ (0.14 J) before it
// overflows.
#ifndef SCT_BUS_ENERGY_H
#define SCT_BUS_ENERGY_H

#include <cmath>
#include <cstdint>

namespace sct::bus {

struct Energy {
  static constexpr int kFracBits = 16;
  /// One quantum in fJ. Scaling by a power of two is exact, and unlike
  /// std::ldexp it compiles to one multiply: fJ() is read per cycle.
  static constexpr double kQuantum_fJ = 1.0 / (std::int64_t{1} << kFracBits);

  std::int64_t quanta = 0;  ///< Multiples of kQuantum_fJ.

  /// The nearest quantum to `fJ`.
  static Energy fromFj(double fJ) {
    return Energy{std::llround(fJ / kQuantum_fJ)};
  }
  /// Exact while |quanta| < 2^53 (~1.4e11 fJ).
  double fJ() const { return static_cast<double>(quanta) * kQuantum_fJ; }

  constexpr Energy& operator+=(Energy o) {
    quanta += o.quanta;
    return *this;
  }
  friend constexpr Energy operator+(Energy a, Energy b) {
    return Energy{a.quanta + b.quanta};
  }
  friend constexpr Energy operator-(Energy a, Energy b) {
    return Energy{a.quanta - b.quanta};
  }
  /// The energy of `n` transitions at `e` each.
  friend constexpr Energy operator*(Energy e, std::uint64_t n) {
    return Energy{e.quanta * static_cast<std::int64_t>(n)};
  }
  friend constexpr bool operator==(Energy, Energy) = default;
};

} // namespace sct::bus

#endif // SCT_BUS_ENERGY_H
