#include "power/coeff_table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sct::power {
namespace {

using bus::SignalId;

TEST(CoeffTableTest, DefaultsToZero) {
  SignalEnergyTable t;
  for (const auto& info : bus::kSignalTable) {
    EXPECT_DOUBLE_EQ(t.coeff_fJ(info.id), 0.0);
  }
}

TEST(CoeffTableTest, SetAndGet) {
  SignalEnergyTable t;
  t.setCoeff_fJ(SignalId::EB_A, 123.5);
  EXPECT_DOUBLE_EQ(t.coeff_fJ(SignalId::EB_A), 123.5);
  const auto a = static_cast<std::size_t>(SignalId::EB_A);
  EXPECT_EQ(t.coeffs()[a].quanta, 123 * 65536 + 32768);
  EXPECT_EQ((t.coeffs()[a] * 4).fJ(), 494.0);
}

TEST(CoeffTableTest, CoefficientsAreQuantizedOnceWhenSet) {
  // 2^-16 fJ quanta: a coefficient between two quanta reads back as the
  // nearest one, and that is the value every model multiplies by.
  SignalEnergyTable t;
  t.setCoeff_fJ(SignalId::EB_A, 0.1);
  const auto a = static_cast<std::size_t>(SignalId::EB_A);
  EXPECT_EQ(t.coeffs()[a].quanta, 6554);  // 0.1 * 65536 = 6553.6
  EXPECT_EQ(t.coeff_fJ(SignalId::EB_A), 6554.0 / 65536.0);
}

TEST(CoeffTableTest, SaveLoadRoundTrip) {
  SignalEnergyTable t;
  double v = 10.0;
  for (const auto& info : bus::kSignalTable) {
    t.setCoeff_fJ(info.id, v);
    v += 3.25;
  }
  std::stringstream ss;
  t.save(ss);
  const SignalEnergyTable loaded = SignalEnergyTable::load(ss);
  EXPECT_EQ(t, loaded);
}

TEST(CoeffTableTest, LoadSkipsCommentsAndBlankLines) {
  std::stringstream ss("# comment\n\nEB_A 42.5\n");
  const SignalEnergyTable t = SignalEnergyTable::load(ss);
  EXPECT_DOUBLE_EQ(t.coeff_fJ(SignalId::EB_A), 42.5);
  EXPECT_DOUBLE_EQ(t.coeff_fJ(SignalId::EB_RData), 0.0);
}

TEST(CoeffTableTest, InvertLineRoundTripsThroughTextFormat) {
  // The EB_Inv codec sideband is a first-class bundle: it must appear
  // in the saved table text and survive a load like any data signal
  // (a coefficient database written before the bundle existed still
  // loads — missing signals keep their current value).
  SignalEnergyTable t;
  t.setCoeff_fJ(SignalId::EB_Inv, 7.75);
  std::stringstream ss;
  t.save(ss);
  EXPECT_NE(ss.str().find("EB_Inv 7.75"), std::string::npos);
  const SignalEnergyTable loaded = SignalEnergyTable::load(ss);
  EXPECT_DOUBLE_EQ(loaded.coeff_fJ(SignalId::EB_Inv), 7.75);
}

TEST(CoeffTableTest, LoadRejectsUnknownSignal) {
  std::stringstream ss("EB_BOGUS 1.0\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsOutOfRangeCoefficient) {
  // Past 1e9 fJ the integer energy sums could overflow.
  std::stringstream ss("EB_A 1e300\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
  std::stringstream neg("EB_A -2e9\n");
  EXPECT_THROW(SignalEnergyTable::load(neg), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsMalformedLine) {
  std::stringstream ss("EB_A notanumber\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

} // namespace
} // namespace sct::power
