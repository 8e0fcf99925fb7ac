// The card-farm core contracts:
//  * scenario scripts are deterministic in (name, seed) and end with
//    the end-of-session command,
//  * the golden boot snapshot carries the power model and ledger
//    sections on top of the platform's own,
//  * recycling an instance from the golden snapshot makes repeated
//    sessions BIT-IDENTICAL (energies compared exactly),
//  * the engine serves a job set at threads=1 and threads=8 with
//    identical per-session result lines (the serve determinism
//    headline), and
//  * protocol errors come back as error lines, not crashes.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bus/ec_signals.h"
#include "power/coeff_table.h"
#include "serve/card_instance.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/scenario.h"

namespace sct {
namespace {

power::SignalEnergyTable fixedTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

// ---------------------------------------------------------------------
// Scenarios

TEST(ServeScenario, KnownNamesExpandAndEndTheSession) {
  for (const char* name : {"auth", "wrong_pin", "challenge", "mixed"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(serve::knownScenario(name));
    const std::vector<serve::Step> steps = serve::buildScenario(name, 42);
    ASSERT_FALSE(steps.empty());
    EXPECT_EQ(steps.back().cmd.cla, soc::apdu::kClaEndSession);
  }
  EXPECT_FALSE(serve::knownScenario("bogus"));
  EXPECT_TRUE(serve::buildScenario("bogus", 0).empty());
}

TEST(ServeScenario, SameSeedSameScript) {
  const auto a = serve::buildScenario("mixed", 123);
  const auto b = serve::buildScenario("mixed", 123);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cmd.encode(), b[i].cmd.encode());
    EXPECT_EQ(a[i].expectSw, b[i].expectSw);
  }
  // A different seed varies the mix (the PRNG actually feeds it).
  const auto c = serve::buildScenario("mixed", 124);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].cmd.encode() != c[i].cmd.encode();
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// Golden snapshot + recycle

TEST(ServeCard, GoldenSnapshotCarriesPowerSections) {
  const ckpt::Snapshot golden = serve::CardInstance::bootGolden(fixedTable());
  EXPECT_NE(golden.find("pm"), nullptr);
  EXPECT_NE(golden.find("ledger"), nullptr);
  EXPECT_NE(golden.find("cpu"), nullptr);
  EXPECT_NE(golden.find("ecbus"), nullptr);
  EXPECT_EQ(golden.sections().size(), 16u);
}

TEST(ServeCard, RecycledSessionsAreBitIdentical) {
  const power::SignalEnergyTable table = fixedTable();
  const ckpt::Snapshot golden = serve::CardInstance::bootGolden(table);
  const std::vector<serve::Step> steps = serve::buildScenario("auth", 7);

  serve::CardInstance card(table);
  card.recycle(golden);
  const serve::SessionOutcome first = card.runSession(steps);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(first.expected);
  if (obs::kEnabled) {
    EXPECT_GT(first.energy.total().quanta, 0);
  }

  // Serve more sessions on the SAME instance — a different scenario in
  // between to dirty the state — recycling before each. The repeat of
  // the first session must match bit for bit (exact equality via
  // LedgerView::operator==).
  card.recycle(golden);
  const serve::SessionOutcome other =
      card.runSession(serve::buildScenario("mixed", 99));
  ASSERT_TRUE(other.ok);

  card.recycle(golden);
  const serve::SessionOutcome again = card.runSession(steps);
  EXPECT_EQ(again.ok, first.ok);
  EXPECT_EQ(again.sw, first.sw);
  EXPECT_EQ(again.cycles, first.cycles);
  EXPECT_EQ(again.instructions, first.instructions);
  EXPECT_EQ(again.energy, first.energy);

  // And a freshly constructed instance adopting the same golden
  // produces the same session too (worker-count independence).
  serve::CardInstance fresh(table);
  fresh.recycle(golden);
  const serve::SessionOutcome onFresh = fresh.runSession(steps);
  EXPECT_EQ(onFresh.sw, first.sw);
  EXPECT_EQ(onFresh.cycles, first.cycles);
  EXPECT_EQ(onFresh.energy, first.energy);
}

// ---------------------------------------------------------------------
// Engine

/// Collects lines keyed by job id. Sinks run under the engine's emit
/// lock, so the map needs no extra synchronization during a run.
struct Collector {
  std::map<std::string, std::string> byId;

  serve::ServeEngine::Sink sinkFor(const std::string& id) {
    return [this, id](const std::string& line) { byId[id] = line; };
  }
};

std::vector<serve::Job> jobMix() {
  std::vector<serve::Job> jobs;
  const char* names[] = {"auth", "wrong_pin", "challenge", "mixed"};
  for (int i = 0; i < 12; ++i) {
    serve::Job j;
    j.id = "j" + std::to_string(i);
    j.scenario = names[i % 4];
    j.seed = static_cast<std::uint64_t>(100 + i);
    jobs.push_back(j);
  }
  return jobs;
}

std::map<std::string, std::string> serveAll(unsigned workers) {
  serve::ServeEngine engine(fixedTable(), workers);
  Collector out;
  for (const serve::Job& j : jobMix()) {
    engine.submitJob(j, out.sinkFor(j.id));
  }
  engine.drain();
  EXPECT_EQ(engine.completed(), 12u);
  return out.byId;
}

TEST(ServeEngine, ThreadCountDoesNotChangeAnyResultLine) {
  // The acceptance headline: same job set, threads=1 vs threads=8,
  // per-session result lines identical as STRINGS — which, with
  // %.17g emission, means the energies are bit-identical.
  const std::map<std::string, std::string> sequential = serveAll(1);
  const std::map<std::string, std::string> threaded = serveAll(8);
  ASSERT_EQ(sequential.size(), 12u);
  EXPECT_EQ(threaded, sequential);
}

TEST(ServeEngine, ResultLinesAreValidJsonWithAttribution) {
  serve::ServeEngine engine(fixedTable(), 2);
  Collector out;
  serve::Job job;
  job.id = "probe";
  job.scenario = "auth";
  job.seed = 5;
  engine.submitJob(job, out.sinkFor(job.id));
  engine.drain();

  const serve::JsonValue v = serve::parseJson(out.byId.at("probe"));
  EXPECT_EQ(v.find("event")->asString(), "result");
  EXPECT_EQ(v.find("scenario")->asString(), "auth");
  EXPECT_TRUE(v.find("ok")->asBool());
  EXPECT_TRUE(v.find("expected")->asBool());
  if (obs::kEnabled) {
    EXPECT_GT(v.find("energy_fJ")->asNumber(), 0.0);
  }
  EXPECT_GT(v.find("cycles")->asNumber(), 0.0);
  // Per-class and per-bundle attribution are complete.
  EXPECT_EQ(v.find("by_class")->asObject().size(), obs::kTxClassCount);
  EXPECT_EQ(v.find("by_bundle")->asObject().size(), bus::kSignalCount);
  EXPECT_EQ(v.find("by_slave")->asArray().size(), obs::kLedgerSlaveSlots);
  EXPECT_EQ(v.find("by_master")->asArray().size(), obs::kLedgerMasterSlots);
  // The dimensional splits cross-sum to the total.
  double classSum = 0.0;
  for (const auto& [name, val] : v.find("by_class")->asObject()) {
    classSum += val.asNumber();
  }
  EXPECT_NEAR(classSum, v.find("energy_fJ")->asNumber(),
              1e-9 * classSum + 1e-12);
}

TEST(ServeEngine, ProtocolErrorsComeBackAsErrorLines) {
  serve::ServeEngine engine(fixedTable(), 1);
  std::vector<std::string> lines;
  const serve::ServeEngine::Sink sink = [&lines](const std::string& line) {
    lines.push_back(line);
  };
  engine.submitLine("this is not json", sink);
  engine.submitLine("{\"id\":\"x\"}", sink);                      // No scenario.
  engine.submitLine("{\"id\":\"y\",\"scenario\":\"nope\"}", sink);
  engine.submitLine(
      "{\"id\":\"z\",\"scenario\":\"auth\",\"fidelity\":\"tl2\"}", sink);
  // Negative, out-of-range and fractional seeds are refused, not cast.
  for (const char* seed : {"-1", "1e300", "1.5"}) {
    engine.submitLine(
        std::string(R"({"id":"s","scenario":"auth","seed":)") + seed + "}",
        sink);
  }
  engine.drain();
  ASSERT_EQ(lines.size(), 7u);
  for (const std::string& line : lines) {
    const serve::JsonValue v = serve::parseJson(line);
    EXPECT_EQ(v.find("event")->asString(), "error");
  }
  EXPECT_EQ(engine.errors(), 7u);
  EXPECT_EQ(engine.completed(), 0u);
}

} // namespace
} // namespace sct
