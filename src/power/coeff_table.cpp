#include "power/coeff_table.h"

#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sct::power {

void SignalEnergyTable::save(std::ostream& os) const {
  os << "# EC interface energy coefficients (fJ per bit transition)\n";
  // max_digits10 keeps the round trip through text lossless.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& info : bus::kSignalTable) {
    os << info.name << ' ' << coeff_fJ(info.id) << '\n';
  }
}

SignalEnergyTable SignalEnergyTable::load(std::istream& is) {
  SignalEnergyTable table;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    double value = 0.0;
    if (!(ls >> name >> value)) {
      throw std::runtime_error("SignalEnergyTable: malformed line: " + line);
    }
    // Quantized coefficients are multiplied by transition counts and
    // summed in int64; a magnitude past 1e9 fJ (1 uJ per transition) is
    // no characterized bus and could overflow those sums.
    if (std::fabs(value) > 1e9) {
      throw std::runtime_error("SignalEnergyTable: coefficient out of range: " +
                               line);
    }
    bool found = false;
    for (const auto& info : bus::kSignalTable) {
      if (info.name == name) {
        table.setCoeff_fJ(info.id, value);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::runtime_error("SignalEnergyTable: unknown signal: " + name);
    }
  }
  return table;
}

} // namespace sct::power
