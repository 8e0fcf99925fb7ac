#include "sca/analyzer.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/parallel_runner.h"
#include "soc/peripherals.h"

namespace sct::sca {

namespace {

/// Exact integer moment sums. Element-wise addition is associative and
/// commutative over integers, so any partition of the trace stream
/// merges to the same accumulator — the root of the chunk-size and
/// thread-count independence contract.
struct Moments {
  std::uint64_t n = 0;
  std::array<std::uint64_t, 256> sumH{};
  std::array<std::uint64_t, 256> sumHH{};
  std::vector<std::int64_t> sumX;    ///< [sample]
  std::vector<std::int64_t> sumXX;   ///< [sample]
  std::vector<std::int64_t> sumHX;   ///< [guess * samples + sample]
  std::array<std::uint64_t, 256> n1{};  ///< DoM: traces in the "1" set.
  std::vector<std::int64_t> sum1X;   ///< DoM: [guess * samples + sample]

  explicit Moments(std::size_t samples)
      : sumX(samples, 0),
        sumXX(samples, 0),
        sumHX(256 * samples, 0),
        sum1X(256 * samples, 0) {}

  void addTrace(const TraceRecord& trace, unsigned byteIndex) {
    const std::size_t samples = sumX.size();
    ++n;
    for (std::size_t t = 0; t < samples; ++t) {
      const std::int64_t x = trace.samples[t];
      sumX[t] += x;
      sumXX[t] += x * x;
    }
    for (unsigned g = 0; g < 256; ++g) {
      const auto h = static_cast<std::int64_t>(
          DpaAnalyzer::hypothesis(trace.meta, byteIndex, g));
      sumH[g] += static_cast<std::uint64_t>(h);
      sumHH[g] += static_cast<std::uint64_t>(h * h);
      std::int64_t* hx = &sumHX[static_cast<std::size_t>(g) * samples];
      if (h != 0) {
        for (std::size_t t = 0; t < samples; ++t) {
          hx[t] += h * trace.samples[t];
        }
      }
      if (h >= 4) {
        ++n1[g];
        std::int64_t* ox = &sum1X[static_cast<std::size_t>(g) * samples];
        for (std::size_t t = 0; t < samples; ++t) ox[t] += trace.samples[t];
      }
    }
  }

  void merge(const Moments& o) {
    n += o.n;
    for (unsigned g = 0; g < 256; ++g) {
      sumH[g] += o.sumH[g];
      sumHH[g] += o.sumHH[g];
      n1[g] += o.n1[g];
    }
    for (std::size_t i = 0; i < sumX.size(); ++i) {
      sumX[i] += o.sumX[i];
      sumXX[i] += o.sumXX[i];
    }
    for (std::size_t i = 0; i < sumHX.size(); ++i) {
      sumHX[i] += o.sumHX[i];
      sum1X[i] += o.sum1X[i];
    }
  }
};

/// Max-over-samples Pearson |r| for one guess, from exact moments.
double cpaScore(const Moments& m, unsigned g) {
  const std::size_t samples = m.sumX.size();
  const double n = static_cast<double>(m.n);
  const double sh = static_cast<double>(m.sumH[g]);
  const double shh = static_cast<double>(m.sumHH[g]);
  const double varH = n * shh - sh * sh;
  if (varH <= 0.0) return 0.0;  // Constant hypothesis: no information.
  const std::int64_t* hx = &m.sumHX[static_cast<std::size_t>(g) * samples];
  double best = 0.0;
  for (std::size_t t = 0; t < samples; ++t) {
    const double sx = static_cast<double>(m.sumX[t]);
    const double varX =
        n * static_cast<double>(m.sumXX[t]) - sx * sx;
    if (varX <= 0.0) continue;  // Constant sample point.
    const double cov = n * static_cast<double>(hx[t]) - sh * sx;
    const double r = std::abs(cov) / std::sqrt(varH * varX);
    best = std::max(best, r);
  }
  return best;
}

/// Max-over-samples standardized difference of means for one guess:
/// |mean(set1) − mean(set0)| divided by its standard error under the
/// pooled per-sample variance. The raw difference would be dominated
/// by high-variance cycles (plaintext loads, ciphertext stores toggle
/// whole words); standardizing makes the quiet crypto-round cycles —
/// where the partition actually separates — carry the score. Every
/// input is an exact integer moment, so the value is bit-identical for
/// any chunk/thread split.
double domScore(const Moments& m, unsigned g) {
  const std::uint64_t n1 = m.n1[g];
  const std::uint64_t n0 = m.n - n1;
  if (n1 == 0 || n0 == 0) return 0.0;
  const std::size_t samples = m.sumX.size();
  const double n = static_cast<double>(m.n);
  const double splitSe =
      1.0 / static_cast<double>(n1) + 1.0 / static_cast<double>(n0);
  const std::int64_t* ox = &m.sum1X[static_cast<std::size_t>(g) * samples];
  double best = 0.0;
  for (std::size_t t = 0; t < samples; ++t) {
    const double sx = static_cast<double>(m.sumX[t]);
    const double varX =
        (n * static_cast<double>(m.sumXX[t]) - sx * sx) / (n * n);
    if (varX <= 0.0) continue;  // Constant sample point: no partition info.
    const double mean1 = static_cast<double>(ox[t]) / static_cast<double>(n1);
    const double mean0 =
        (sx - static_cast<double>(ox[t])) / static_cast<double>(n0);
    best = std::max(best, std::abs(mean1 - mean0) / std::sqrt(varX * splitSe));
  }
  return best;
}

RankPoint rankNow(const Moments& m, const AttackConfig& cfg,
                  unsigned correctGuess, std::array<double, 256>& scores) {
  for (unsigned g = 0; g < 256; ++g) {
    scores[g] = cfg.mode == AttackMode::Cpa ? cpaScore(m, g)
                                            : domScore(m, g);
  }
  RankPoint p;
  p.traces = m.n;
  p.correctScore = scores[correctGuess];
  // Rank = number of guesses strictly better, ties broken by guess
  // index (deterministic — no float-compare ambiguity at equality).
  unsigned rank = 0;
  unsigned best = 0;
  for (unsigned g = 0; g < 256; ++g) {
    if (scores[g] > scores[best]) best = g;
    if (g == correctGuess) continue;
    if (scores[g] > p.correctScore ||
        (scores[g] == p.correctScore && g < correctGuess)) {
      ++rank;
    }
  }
  p.rank = rank;
  p.bestGuess = best;
  p.bestScore = scores[best];
  return p;
}

} // namespace

unsigned DpaAnalyzer::hypothesis(const TraceMeta& meta, unsigned byteIndex,
                                 unsigned guess) {
  const std::uint32_t d0 = meta.plaintext[0];
  const std::uint32_t d1 = meta.plaintext[1];
  const std::uint32_t known = d1 ^ d0 ^ (d1 >> 3);
  const auto ptByte =
      static_cast<std::uint8_t>(d1 >> (8 * byteIndex));
  const std::uint8_t sout = soc::CryptoCoprocessor::sbox(
      static_cast<std::uint8_t>(ptByte ^ guess));
  // The S output byte sits at bits [8i, 8i+8) and the round function
  // rotates it left by 5; XOR with the known bits at the landed
  // positions predicts this byte's toggle contribution.
  const std::uint32_t landed =
      std::rotl(static_cast<std::uint32_t>(sout) << (8 * byteIndex), 5);
  const std::uint32_t knownMask =
      std::rotl(0xFFu << (8 * byteIndex), 5);
  return static_cast<unsigned>(std::popcount((known & knownMask) ^ landed));
}

unsigned DpaAnalyzer::roundZeroKeyByte(const std::uint32_t key[4],
                                       unsigned byteIndex) {
  const std::uint32_t rk0 = key[0] ^ 0x9E3779B9u;
  return static_cast<unsigned>(static_cast<std::uint8_t>(rk0 >> (8 * byteIndex)));
}

AttackResult DpaAnalyzer::analyze(const std::string& corpusPath) const {
  TraceCorpusReader reader(corpusPath);
  const CorpusHeader& hdr = reader.header();
  const std::size_t samples = hdr.samplesPerTrace;
  if (samples == 0) {
    throw CorpusError("corpus has zero samples per trace: " + corpusPath);
  }
  if (hdr.traceCount == 0) {
    throw CorpusError("corpus has no traces: " + corpusPath);
  }

  // Segment boundaries: chunk ends (the out-of-core read granularity)
  // unioned with the requested rank checkpoints, so checkpoint ranks
  // never depend on where chunks happen to fall.
  std::vector<std::uint64_t> checkpoints;
  for (const std::uint64_t c : cfg_.rankCheckpoints) {
    if (c >= 1 && c <= hdr.traceCount) checkpoints.push_back(c);
  }
  checkpoints.push_back(hdr.traceCount);
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());

  const std::uint64_t chunk = cfg_.chunkTraces == 0 ? 256 : cfg_.chunkTraces;

  AttackResult result;
  Moments total(samples);
  std::vector<TraceRecord> buf;
  std::uint64_t done = 0;
  std::size_t nextCkpt = 0;
  bool haveTruth = false;

  while (done < hdr.traceCount) {
    std::uint64_t goal = std::min(done + chunk, hdr.traceCount);
    goal = std::min(goal, checkpoints[nextCkpt]);
    const auto count = static_cast<std::size_t>(goal - done);

    buf.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (!reader.next(buf[i])) {
        throw CorpusError("corpus ended early: " + corpusPath);
      }
      if (buf[i].samples.size() != samples) {
        throw CorpusError("trace sample count mismatch: " + corpusPath);
      }
    }
    if (!haveTruth) {
      result.correctGuess = roundZeroKeyByte(buf[0].meta.key,
                                             cfg_.byteIndex);
      haveTruth = true;
    }

    // Fixed-size index slices per worker; partials merge in slice
    // order, so the grand total is the sequential sum regardless of
    // which worker finished first (and integer sums make even THAT
    // precaution redundant — it documents the intent).
    const unsigned threads = cfg_.threads == 0 ? 1 : cfg_.threads;
    const std::size_t slices =
        std::min<std::size_t>(threads, count) > 0
            ? std::min<std::size_t>(threads, count)
            : 1;
    const std::size_t per = (count + slices - 1) / slices;
    std::vector<Moments> partial(slices, Moments(samples));
    sim::ParallelRunner::runIndexed(
        slices, threads, [&](std::size_t s) {
          const std::size_t lo = s * per;
          const std::size_t hi = std::min(count, lo + per);
          for (std::size_t i = lo; i < hi; ++i) {
            partial[s].addTrace(buf[i], cfg_.byteIndex);
          }
        });
    for (const Moments& p : partial) total.merge(p);

    done = goal;
    if (done == checkpoints[nextCkpt]) {
      result.curve.push_back(
          rankNow(total, cfg_, result.correctGuess, result.scores));
      ++nextCkpt;
    }
  }

  TraceRecord spare;
  if (reader.next(spare)) {
    throw CorpusError("corpus longer than its header claims: " + corpusPath);
  }

  result.traces = total.n;
  const RankPoint& last = result.curve.back();
  result.bestGuess = last.bestGuess;
  result.finalRank = last.rank;
  return result;
}

std::uint64_t tracesToRecovery(const AttackResult& result) {
  std::uint64_t first = 0;
  for (auto it = result.curve.rbegin(); it != result.curve.rend(); ++it) {
    if (it->rank != 0) break;
    first = it->traces;
  }
  return first;
}

} // namespace sct::sca
