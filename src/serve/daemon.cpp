#include "serve/daemon.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "bus/ec_signals.h"
#include "serve/json.h"

namespace sct::serve {

// ---------------------------------------------------------------------
// ServeEngine

ServeEngine::ServeEngine(const power::SignalEnergyTable& table,
                         unsigned workers)
    : table_(table),
      golden_(CardInstance::bootGolden(table_)),
      pool_(workers),
      instances_(pool_.threadCount()) {}

ServeEngine::~ServeEngine() { pool_.wait(); }

CardInstance& ServeEngine::instanceForThisWorker() {
  const unsigned w = pool_.currentWorker();
  std::unique_ptr<CardInstance>& slot = instances_.at(w);
  // Each slot is touched only by its own worker thread; lazy
  // construction needs no lock. Building the platform once per worker
  // (not per session) is most of what makes recycling cheap.
  if (!slot) slot = std::make_unique<CardInstance>(table_);
  return *slot;
}

void ServeEngine::emit(const Sink& sink, const std::string& line) {
  std::lock_guard<std::mutex> lock(emitMutex_);
  if (sink) sink(line);
}

void ServeEngine::submitLine(const std::string& line, Sink sink) {
  Job job;
  try {
    const JsonValue v = parseJson(line);
    if (!v.isObject()) throw JsonError("job line is not a JSON object");
    if (const JsonValue* id = v.find("id")) job.id = id->asString();
    if (const JsonValue* sc = v.find("scenario")) {
      job.scenario = sc->asString();
    }
    if (const JsonValue* seed = v.find("seed")) {
      // Exact integers only: casting a negative, non-finite or
      // out-of-range double to uint64 is undefined behaviour.
      const double d = seed->asNumber();
      if (!(d >= 0.0 && d <= 0x1p53 && d == std::floor(d))) {
        throw JsonError("\"seed\" must be an integer in [0, 2^53]");
      }
      job.seed = static_cast<std::uint64_t>(d);
    }
    if (const JsonValue* f = v.find("fidelity")) {
      job.fidelity = f->asString();
    }
  } catch (const JsonError& e) {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, e.what()));
    return;
  }
  if (job.scenario.empty()) {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, "missing \"scenario\""));
    return;
  }
  if (!knownScenario(job.scenario)) {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, "unknown scenario \"" + job.scenario + "\""));
    return;
  }
  if (job.fidelity != "tl1") {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, "unsupported fidelity \"" + job.fidelity +
                                     "\" (this farm serves tl1)"));
    return;
  }
  submitJob(std::move(job), std::move(sink));
}

void ServeEngine::submitJob(Job job, Sink sink) {
  pool_.submit([this, job = std::move(job), sink = std::move(sink)] {
    try {
      CardInstance& card = instanceForThisWorker();
      card.recycle(golden_);
      const SessionOutcome outcome =
          card.runSession(buildScenario(job.scenario, job.seed));
      completed_.fetch_add(1);
      emit(sink, resultLine(job, outcome));
    } catch (const std::exception& e) {
      errors_.fetch_add(1);
      emit(sink, errorLine(job.id, e.what()));
    }
  });
}

void ServeEngine::drain() { pool_.wait(); }

std::size_t ServeEngine::cancelPending() { return pool_.cancelPending(); }

std::string ServeEngine::resultLine(const Job& job,
                                    const SessionOutcome& o) {
  std::string s = "{\"event\":\"result\",\"id\":";
  appendJsonString(s, job.id);
  s += ",\"scenario\":";
  appendJsonString(s, job.scenario);
  s += ",\"seed\":" + std::to_string(job.seed);
  s += ",\"ok\":";
  s += o.ok ? "true" : "false";
  s += ",\"expected\":";
  s += o.expected ? "true" : "false";
  s += ",\"sw\":[";
  for (std::size_t i = 0; i < o.sw.size(); ++i) {
    char sw[8];
    std::snprintf(sw, sizeof(sw), "\"%04X\"", o.sw[i]);
    if (i != 0) s += ',';
    s += sw;
  }
  s += "],\"cycles\":" + std::to_string(o.cycles);
  s += ",\"instructions\":" + std::to_string(o.instructions);
  s += ",\"energy_fJ\":";
  appendJsonNumber(s, o.energy.total().fJ());
  s += ",\"by_class\":{";
  for (std::size_t i = 0; i < obs::kTxClassCount; ++i) {
    if (i != 0) s += ',';
    appendJsonString(s, obs::txClassName(static_cast<obs::TxClass>(i)));
    s += ':';
    appendJsonNumber(s, o.energy.byClass[i].fJ());
  }
  s += "},\"by_bundle\":{";
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    if (i != 0) s += ',';
    appendJsonString(s, bus::signalName(static_cast<bus::SignalId>(i)));
    s += ':';
    appendJsonNumber(s, o.energy.byBundle[i].fJ());
  }
  s += "},\"by_slave\":[";
  for (std::size_t i = 0; i < o.energy.bySlave.size(); ++i) {
    if (i != 0) s += ',';
    appendJsonNumber(s, o.energy.bySlave[i].fJ());
  }
  s += "],\"by_master\":[";
  for (std::size_t i = 0; i < o.energy.byMaster.size(); ++i) {
    if (i != 0) s += ',';
    appendJsonNumber(s, o.energy.byMaster[i].fJ());
  }
  s += ']';
  if (!o.error.empty()) {
    s += ",\"error\":";
    appendJsonString(s, o.error);
  }
  s += '}';
  return s;
}

std::string ServeEngine::errorLine(const std::string& id,
                                   const std::string& message) {
  std::string s = "{\"event\":\"error\",\"id\":";
  appendJsonString(s, id);
  s += ",\"error\":";
  appendJsonString(s, message);
  s += '}';
  return s;
}

// ---------------------------------------------------------------------
// Daemon front-ends

namespace {

/// Move complete lines out of `buf`, feeding each to `fn`.
template <typename Fn>
void drainLines(std::string& buf, Fn&& fn) {
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = buf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = buf.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    start = nl + 1;
    if (!line.empty()) fn(line);
  }
  buf.erase(0, start);
}

void writeLine(std::FILE* out, const std::string& line) {
  // One fwrite for the whole line + newline: a reader that catches the
  // stream mid-shutdown still sees only complete lines.
  std::string full = line;
  full.push_back('\n');
  std::fwrite(full.data(), 1, full.size(), out);
  std::fflush(out);
}

void writeSummary(std::FILE* out, const ServeEngine& engine,
                  std::size_t dropped) {
  std::string s = "{\"event\":\"done\",\"completed\":" +
                  std::to_string(engine.completed()) +
                  ",\"errors\":" + std::to_string(engine.errors()) +
                  ",\"dropped\":" + std::to_string(dropped) + "}";
  writeLine(out, s);
}

int runStdinDaemon(ServeEngine& engine, std::FILE* in, std::FILE* out,
                   const volatile std::sig_atomic_t* stop) {
  const ServeEngine::Sink sink = [out](const std::string& line) {
    writeLine(out, line);
  };

  const int fd = fileno(in);
  std::string buf;
  bool eof = false;
  while (!*stop && !eof) {
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    drainLines(buf, [&](const std::string& line) {
      engine.submitLine(line, sink);
    });
  }
  // A job file without a trailing newline still counts — but only on
  // EOF; on a signal the partial line was never a complete job.
  if (eof && !buf.empty()) engine.submitLine(buf, sink);

  const std::size_t dropped = *stop ? engine.cancelPending() : 0;
  engine.drain();
  writeSummary(out, engine, dropped);
  return 0;
}

struct SocketClient {
  int fd = -1;
  std::string inBuf;
  /// Cleared when the client disconnects; late results for its jobs
  /// are dropped instead of writing to a dead (possibly reused) fd.
  std::shared_ptr<std::atomic<bool>> open;
};

int runSocketDaemon(ServeEngine& engine, const std::string& path,
                    std::FILE* out,
                    const volatile std::sig_atomic_t* stop) {
  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    std::fprintf(stderr, "sct_serve: socket(): %s\n", std::strerror(errno));
    return 1;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "sct_serve: socket path too long\n");
    ::close(listenFd);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd, 8) < 0) {
    std::fprintf(stderr, "sct_serve: bind/listen(%s): %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(listenFd);
    return 1;
  }

  std::vector<SocketClient> clients;
  while (!*stop) {
    std::vector<pollfd> fds;
    fds.push_back({listenFd, POLLIN, 0});
    for (const SocketClient& c : clients) fds.push_back({c.fd, POLLIN, 0});
    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;

    if (fds[0].revents & POLLIN) {
      const int cfd = ::accept(listenFd, nullptr, nullptr);
      if (cfd >= 0) {
        SocketClient c;
        c.fd = cfd;
        c.open = std::make_shared<std::atomic<bool>>(true);
        clients.push_back(std::move(c));
        continue;  // Re-poll with the new fd included.
      }
    }

    for (std::size_t i = 0; i < clients.size();) {
      SocketClient& c = clients[i];
      const short revents = fds[i + 1].revents;
      bool dead = (revents & (POLLHUP | POLLERR)) != 0;
      if (!dead && (revents & POLLIN)) {
        char chunk[4096];
        const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          c.inBuf.append(chunk, static_cast<std::size_t>(n));
          const int cfd = c.fd;
          const std::shared_ptr<std::atomic<bool>> open = c.open;
          drainLines(c.inBuf, [&](const std::string& line) {
            engine.submitLine(line, [cfd, open](const std::string& result) {
              if (!open->load()) return;
              std::string full = result;
              full.push_back('\n');
              // Best-effort: a client that vanished mid-session just
              // loses its line (MSG_NOSIGNAL keeps EPIPE an errno).
              const ssize_t rc =
                  ::send(cfd, full.data(), full.size(), MSG_NOSIGNAL);
              (void)rc;
            });
          });
        } else if (n == 0 || (n < 0 && errno != EINTR)) {
          dead = true;
        }
      }
      if (dead) {
        c.open->store(false);
        ::close(c.fd);
        clients.erase(clients.begin() + static_cast<long>(i));
        // fds is stale now; break to re-poll.
        break;
      }
      ++i;
    }
  }

  const std::size_t dropped = engine.cancelPending();
  engine.drain();
  for (SocketClient& c : clients) {
    c.open->store(false);
    ::close(c.fd);
  }
  ::close(listenFd);
  ::unlink(path.c_str());
  writeSummary(out, engine, dropped);
  return 0;
}

} // namespace

int runDaemon(const DaemonOptions& options,
              const power::SignalEnergyTable& table, std::FILE* in,
              std::FILE* out, const volatile std::sig_atomic_t* stop) {
  ServeEngine engine(table, options.workers);
  if (options.socketPath.empty()) {
    return runStdinDaemon(engine, in, out, stop);
  }
  return runSocketDaemon(engine, options.socketPath, out, stop);
}

} // namespace sct::serve
