// Ablation — bus width and address coding.
//
// The paper's related-work section notes that "most of the proposed bus
// optimization techniques are based on varying the bus width and bus
// coding scheme" (Benini et al.). This ablation quantifies both on our
// platform:
//  (a) address coding — binary vs Gray code on the 36-bit address bus
//      for a sequential instruction-fetch stream, evaluated analytically
//      with the characterized per-transition coefficient;
//  (b) data-path width — moving a 256-byte buffer over the bus as
//      byte / half-word / word / burst transactions, measured on the
//      layer-0 reference.
#include <array>
#include <bit>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "enc/codecs.h"
#include "power/tl1_power_model.h"
#include "trace/report.h"

namespace {

std::uint64_t toGray(std::uint64_t v) { return v ^ (v >> 1); }

} // namespace

int main() {
  using namespace sct;

  const auto& table = bench::characterizedTable();
  const double coeffA = table.coeff_fJ(bus::SignalId::EB_A);

  // --- (a) Address coding on a sequential fetch stream ----------------
  std::printf("Ablation (a): address bus coding, sequential fetch "
              "stream of 1024 lines\n\n");
  std::uint64_t binaryTransitions = 0;
  std::uint64_t grayTransitions = 0;
  std::uint64_t prevBin = 0;
  std::uint64_t prevGray = 0;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    const std::uint64_t addr = 0x1000 + i * 16;  // Line-sized steps.
    const std::uint64_t gray = toGray(addr >> 4) << 4;
    binaryTransitions += std::popcount(prevBin ^ addr);
    grayTransitions += std::popcount(prevGray ^ gray);
    prevBin = addr;
    prevGray = gray;
  }
  trace::Table coding({"Coding", "EB_A transitions", "Energy (pJ)",
                       "Relative"});
  const double eBin = static_cast<double>(binaryTransitions) * coeffA;
  const double eGray = static_cast<double>(grayTransitions) * coeffA;
  coding.addRow({"binary", std::to_string(binaryTransitions),
                 trace::Table::num(eBin / 1e3, 1), "100.0%"});
  coding.addRow({"gray", std::to_string(grayTransitions),
                 trace::Table::num(eGray / 1e3, 1),
                 trace::Table::pct(eGray / eBin, 1)});
  coding.print(std::cout);
  std::printf("\nGray coding toggles exactly one address bit per "
              "sequential step — the classic low-power bus encoding "
              "result.\n\n");

  // --- (a') Cross-check: analytic counts vs the in-simulator codec ----
  // The counts above are pencil-and-paper; the enc subsystem drives the
  // same encoding through the real TL1 bus. Replaying the identical
  // fetch stream with (and without) the gray address codec installed
  // must reproduce the analytic EB_A transition counts EXACTLY — any
  // drift means the simulator's wire model and the paper math have
  // diverged, and the ablation's conclusions are void.
  {
    const auto fetchStream = [] {
      trace::BusTrace t;
      for (std::uint64_t i = 0; i < 1024; ++i) {
        trace::TraceEntry e;
        e.kind = bus::Kind::InstrFetch;
        e.address = 0x1000 + i * 16;  // Same stream as the table above.
        t.append(e);
      }
      return t;
    }();
    const auto simulatedEbA = [&](sct::bus::BusCodec* codec) {
      bench::ReplayPlatform<bus::Tl1Bus> platform;
      power::Tl1PowerModel pm(table);
      platform.ecbus.addObserver(pm);
      if (codec != nullptr) platform.ecbus.setCodec(codec);
      platform.replay(fetchStream);
      return pm.transitions(bus::SignalId::EB_A);
    };
    const std::uint64_t simBinary = simulatedEbA(nullptr);
    // Granularity 4 = the 16-byte fetch-line stride of the analytic
    // model above.
    enc::GrayAddressCodec gray(4);
    const std::uint64_t simGray = simulatedEbA(&gray);
    std::printf("Cross-check against the in-simulator codec (TL1 bus, "
                "enc::GrayAddressCodec):\n"
                "  binary: analytic %llu, simulated %llu\n"
                "  gray:   analytic %llu, simulated %llu\n\n",
                static_cast<unsigned long long>(binaryTransitions),
                static_cast<unsigned long long>(simBinary),
                static_cast<unsigned long long>(grayTransitions),
                static_cast<unsigned long long>(simGray));
    if (simBinary != binaryTransitions || simGray != grayTransitions) {
      std::fprintf(stderr, "FAIL: analytic and simulated EB_A transition "
                           "counts disagree\n");
      return 1;
    }
  }

  // --- (b) Data-path width for a 256-byte transfer --------------------
  std::printf("Ablation (b): moving 256 bytes RAM -> RAM, by access "
              "width\n\n");
  struct Variant {
    const char* name;
    bus::AccessSize size;
    std::uint8_t beats;
  };
  const Variant variants[] = {
      {"byte accesses", bus::AccessSize::Byte, 1},
      {"half-word accesses", bus::AccessSize::Half, 1},
      {"word accesses", bus::AccessSize::Word, 1},
      {"4-beat bursts", bus::AccessSize::Word, 4},
  };

  // One shared 256-byte payload so every variant moves identical data.
  std::array<bus::Word, 64> payload{};
  trace::fillRealistic(reinterpret_cast<std::uint8_t*>(payload.data()),
                       payload.size() * 4, 31);

  trace::Table width({"Transfer style", "Transactions", "Cycles",
                      "Energy (pJ)", "pJ/byte"});
  for (const Variant& v : variants) {
    bench::ReplayPlatform<ref::GlBus> platform(bench::energyModel());
    trace::BusTrace t;
    const unsigned step = v.beats > 1 ? 16 : static_cast<unsigned>(v.size);
    for (unsigned off = 0; off < 256; off += step) {
      trace::TraceEntry rd;
      rd.kind = bus::Kind::Read;
      rd.address = soc::memmap::kRamBase + 0x400 + off;
      rd.size = v.size;
      rd.beats = v.beats;
      t.append(rd);
      trace::TraceEntry wr;
      wr.kind = bus::Kind::Write;
      wr.address = soc::memmap::kRamBase + 0x800 + off;
      wr.size = v.size;
      wr.beats = v.beats;
      for (unsigned b = 0; b < v.beats; ++b) {
        wr.writeData[b] = payload[(off / 4 + b) % payload.size()];
      }
      t.append(wr);
    }
    const std::uint64_t cycles = platform.replay(t);
    width.addRow({v.name, std::to_string(t.size()),
                  std::to_string(cycles),
                  trace::Table::num(platform.ecbus.energy().total_fJ / 1e3,
                                    1),
                  trace::Table::num(
                      platform.ecbus.energy().total_fJ / 1e3 / 256.0, 2)});
  }
  width.print(std::cout);
  std::printf("\nWider transfers amortize address/control activity and "
              "baseline energy over more bytes; bursts add streaming on "
              "top — the bus-width lever of the related work.\n");
  return 0;
}
