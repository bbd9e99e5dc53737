// serve-repeat: NDJSON requests to an in-process loopback daemon
// (service::Server). A closed loop of pipelined connections sends rounds
// of 100 requests: 98 repeats of a working set pre-filled at set-up (run
// cache hits) and 2 fresh generated programs (misses that fill the cache).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <deque>
#include <functional>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "bench.hpp"
#include "checks.hpp"
#include "corpus/corpus.hpp"
#include "gen/generator.hpp"
#include "layers.hpp"
#include "sim/measure.hpp"
#include "support/json_parse.hpp"

namespace perfbench {

namespace {

constexpr int kConnections = 2;     ///< pipelined client connections
constexpr std::size_t kDepth = 4;   ///< requests in flight per connection
constexpr int kRoundRequests = 100;
constexpr int kFreshPerRound = 2;   ///< at slots 0 and 50 of each round
constexpr int kRoundsPerPass = 50;

/// The repeated working set: the four paper programs at two sizes and two
/// processor counts each (16 distinct run-cache keys).
std::vector<BenchProgram> working_set() {
  using al::corpus::Dtype;
  std::vector<BenchProgram> out;
  const struct {
    const char* program;
    long n[2];
  } kinds[] = {{"adi", {64, 128}}, {"erlebacher", {16, 32}}, {"tomcatv", {64, 128}},
               {"shallow", {64, 128}}};
  for (const auto& k : kinds)
    for (const long n : k.n)
      for (const int procs : {4, 16}) {
        const al::corpus::TestCase c{k.program, n, Dtype::DoublePrecision, procs};
        out.push_back(BenchProgram{c.name(), al::corpus::source_for(c), procs, false});
      }
  return out;
}

/// The parts of one response line the checks read, located without a
/// full parse: the envelope puts "report" last, so the report's bytes run
/// from after `"report":` to the closing brace.
struct ResponseView {
  bool ok = false;
  bool hit = false;
  std::string_view report;
};

ResponseView view_response(std::string_view line) {
  ResponseView v;
  constexpr std::string_view kReport = "\"report\": ";
  v.ok = line.find("\"status\": \"ok\"") != std::string_view::npos;
  v.hit = line.find("\"cache\": \"hit\"") != std::string_view::npos;
  const std::size_t at = line.find(kReport);
  if (at != std::string_view::npos && line.size() > at + kReport.size() && line.back() == '}')
    v.report = line.substr(at + kReport.size(), line.size() - at - kReport.size() - 1);
  return v;
}

std::size_t report_hash(std::string_view report) { return std::hash<std::string_view>{}(report); }

/// A hit must be ok, served from the cache, and carry its key's report
/// bytes exactly. Returns "" when it does.
std::string check_hit(std::string_view line, std::size_t expected_hash) {
  const ResponseView v = view_response(line);
  if (!v.ok) return "response not ok";
  if (!v.hit) return "repeat request was not a cache hit";
  if (report_hash(v.report) != expected_hash) return "hit report bytes differ from the miss";
  return "";
}

/// The report's chosen candidate per phase and selection total must equal
/// a direct run_tool of the same source.
std::string check_report(std::string_view report, const al::driver::ToolResult& direct) {
  al::support::JsonValue doc;
  std::string error;
  if (!al::support::JsonValue::parse(report, doc, error)) return "report is not JSON: " + error;
  const al::support::JsonValue* phases = doc.find("phases");
  const al::support::JsonValue* selection = doc.find("selection");
  const al::support::JsonValue* total =
      selection != nullptr ? selection->find("total_cost_us") : nullptr;
  if (phases == nullptr || !phases->is_array() || total == nullptr || !total->is_number())
    return "report lacks phases or selection total";
  if (phases->items().size() != direct.selection.chosen.size())
    return "report has the wrong number of phases";
  for (std::size_t p = 0; p < phases->items().size(); ++p) {
    const al::support::JsonValue* chosen = phases->items()[p].find("chosen");
    if (chosen == nullptr || !chosen->is_number() ||
        chosen->as_double() != static_cast<double>(direct.selection.chosen[p]))
      return "phase " + std::to_string(p) + " chose differently from a direct run";
  }
  if (!same_cost(total->as_double(), direct.selection.total_cost_us))
    return "selection total differs from a direct run";
  return "";
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send to the daemon failed");
    off += static_cast<std::size_t>(n);
  }
}

/// One pipelined loopback connection and the requests it has in flight.
struct Connection {
  explicit Connection(int port) : fd(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error("connect to the daemon failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  struct InFlight {
    std::size_t index = 0;
    Clock::time_point sent;
  };

  int fd;
  std::string buffer;  ///< received bytes not yet split into lines
  std::deque<InFlight> in_flight;
};

using OnResponse = std::function<void(std::size_t index, std::string_view line, double ms)>;

/// Closed loop: each connection keeps up to kDepth requests in flight and
/// sends the next request of `requests` as soon as a response arrives.
void drive(std::vector<std::unique_ptr<Connection>>& conns,
           const std::vector<const std::string*>& requests, const OnResponse& on_response) {
  std::size_t next = 0, done = 0;
  auto send_next = [&](Connection& c) {
    c.in_flight.push_back(Connection::InFlight{next, Clock::now()});
    send_all(c.fd, *requests[next]);
    ++next;
  };
  for (auto& c : conns)
    for (std::size_t d = 0; d < kDepth && next < requests.size(); ++d) send_next(*c);
  std::vector<pollfd> fds;
  for (auto& c : conns) fds.push_back(pollfd{c->fd, POLLIN, 0});
  char chunk[1 << 16];
  while (done < requests.size()) {
    if (::poll(fds.data(), fds.size(), 30'000) <= 0)
      throw std::runtime_error("the daemon stopped answering");
    for (std::size_t k = 0; k < conns.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = *conns[k];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("the daemon closed a connection");
      c.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (c.in_flight.empty()) throw std::runtime_error("unsolicited response");
        const Connection::InFlight f = c.in_flight.front();
        c.in_flight.pop_front();
        on_response(f.index, std::string_view(c.buffer).substr(start, nl - start),
                    elapsed_ms(f.sent));
        ++done;
        if (next < requests.size()) send_next(c);
      }
      c.buffer.erase(0, start);
    }
  }
}

/// The seeded stream of fresh programs: small generated programs, each
/// new to the run (a draw whose source was already seen is skipped).
class FreshStream {
public:
  FreshStream(std::uint64_t seed, const std::vector<BenchProgram>& seen) : rng_(seed) {
    for (const BenchProgram& p : seen) seen_.insert(source_hash(p.source));
  }
  BenchProgram next() {
    for (;;) {
      std::string source = al::gen::random_program(rng_, al::gen::GenOptions{});
      if (seen_.insert(source_hash(source)).second)
        return BenchProgram{"fresh-" + std::to_string(count_++), std::move(source), 16, false};
    }
  }
  /// Distinct programs drawn so far.
  [[nodiscard]] long drawn() const { return count_; }

private:
  static std::size_t source_hash(const std::string& s) { return std::hash<std::string>{}(s); }

  al::gen::Rng rng_;
  std::unordered_set<std::size_t> seen_;  ///< hashes keep memory flat over a long run
  long count_ = 0;
};

/// Every fresh answer must equal a direct run_tool of its source (outside
/// the timing).
void check_fresh(const std::vector<BenchProgram>& fresh,
                 const std::vector<std::string>& reports, RunResult& out) {
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const auto r = al::driver::run_tool(fresh[i].source, pipeline_options(fresh[i].procs));
    const std::string why = check_report(reports[i], *r);
    if (!why.empty()) out.fail_check(fresh[i].name + ": " + why);
  }
}

/// One daemon with its client connections, the working set pre-filled.
class Daemon {
public:
  Daemon(const std::vector<BenchProgram>& working, RunResult& out) : server_(options()) {
    if (!server_.start()) throw std::runtime_error("daemon failed to start");
    for (int k = 0; k < kConnections; ++k)
      conns_.push_back(std::make_unique<Connection>(server_.port()));
    for (std::size_t i = 0; i < working.size(); ++i)
      working_lines_.push_back(request_line(working[i], "w" + std::to_string(i)));
    std::vector<const std::string*> prefill;
    for (const std::string& line : working_lines_) prefill.push_back(&line);
    expected_hash_.resize(working.size());
    prefill_reports_.resize(working.size());
    drive(conns_, prefill, [&](std::size_t i, std::string_view line, double) {
      const ResponseView v = view_response(line);
      if (!v.ok || v.hit) out.fail_check(working[i].name + ": pre-fill was not an ok miss");
      expected_hash_[i] = report_hash(v.report);
      prefill_reports_[i] = v.report;
    });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  static al::service::ServerOptions options() {
    al::service::ServerOptions o;
    o.workers = 1;
    return o;
  }

  /// One pass of `rounds` rounds; the pass's fresh programs and their
  /// miss reports are returned in `fresh` and `fresh_reports`.
  Pass run_pass(int rounds, std::mt19937_64& rng, FreshStream& stream,
                std::vector<BenchProgram>& fresh, std::vector<std::string>& fresh_reports,
                RunResult& out, RefKernel* kernel, std::string* hit_sample) {
    // Build the pass's request sequence outside the timing.
    fresh.clear();
    std::vector<std::string> fresh_lines;
    std::vector<int> slot_key;  // working-set index, or -1 - fresh index
    std::uniform_int_distribution<int> pick(0, static_cast<int>(working_lines_.size()) - 1);
    for (int r = 0; r < rounds; ++r) {
      for (int s = 0; s < kRoundRequests; ++s) {
        if (s % (kRoundRequests / kFreshPerRound) == 0) {
          fresh.push_back(stream.next());
          fresh_lines.push_back(request_line(fresh.back(), fresh.back().name));
          slot_key.push_back(-static_cast<int>(fresh_lines.size()));
        } else {
          slot_key.push_back(pick(rng));
        }
      }
    }
    fresh_reports.assign(fresh.size(), std::string());
    std::vector<const std::string*> requests;
    for (const int key : slot_key)
      requests.push_back(key >= 0 ? &working_lines_[static_cast<std::size_t>(key)]
                                  : &fresh_lines[static_cast<std::size_t>(-key - 1)]);

    Pass pass;
    pass.op_ms.resize(requests.size());
    const double k0 = kernel != nullptr ? kernel->run_ms() : 0.0;
    const Clock::time_point t0 = Clock::now();
    drive(conns_, requests, [&](std::size_t i, std::string_view line, double ms) {
      pass.op_ms[i] = ms;
      ++out.attempted;
      const int key = slot_key[i];
      if (key >= 0) {
        const std::string why = check_hit(line, expected_hash_[static_cast<std::size_t>(key)]);
        if (!why.empty()) {
          ++out.failed;
          out.fail_check("request " + std::to_string(i) + ": " + why);
        } else if (hit_sample != nullptr && hit_sample->empty()) {
          *hit_sample = line;
          hit_sample_key_ = key;
        }
      } else {
        const ResponseView v = view_response(line);
        if (!v.ok || v.hit) {
          ++out.failed;
          out.fail_check("fresh request " + std::to_string(i) + " was not an ok miss");
        }
        fresh_reports[static_cast<std::size_t>(-key - 1)] = v.report;
      }
    });
    pass.raw_ms = elapsed_ms(t0);
    finish_overlapped_pass(pass, k0, kernel != nullptr ? kernel->run_ms() : 0.0);
    return pass;
  }

  /// Sends every working-set request once more; each must be a hit.
  void repeat_working_set(RunResult& out) {
    std::vector<const std::string*> requests;
    for (const std::string& line : working_lines_) requests.push_back(&line);
    drive(conns_, requests, [&](std::size_t i, std::string_view line, double) {
      const std::string why = check_hit(line, expected_hash_[i]);
      if (!why.empty()) out.fail_check("repeat of program " + std::to_string(i) + ": " + why);
    });
  }

  [[nodiscard]] std::size_t expected_hash(int key) const {
    return expected_hash_[static_cast<std::size_t>(key)];
  }
  [[nodiscard]] int hit_sample_key() const { return hit_sample_key_; }
  [[nodiscard]] const std::vector<std::string>& prefill_reports() const {
    return prefill_reports_;
  }

  /// Stops the daemon and returns its summary and cache statistics.
  std::pair<al::service::ServiceSummary, al::perf::RunCacheStats> finish() {
    stop();
    return {server_.summary(), server_.run_cache()->stats()};
  }

private:
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    conns_.clear();
    server_.request_stop();
    server_.wait();
  }

  al::service::Server server_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::string> working_lines_;
  std::vector<std::size_t> expected_hash_;
  std::vector<std::string> prefill_reports_;
  int hit_sample_key_ = -1;
  bool stopped_ = false;
};

} // namespace

void add_service_layers(RunResult& out, const std::vector<BenchProgram>& programs) {
  add_codec_layers(out, programs);
  Daemon loopback(programs, out);
  loopback.repeat_working_set(out);
  const auto [summary, cache] = loopback.finish();
  add_server_layers(out, summary, cache);
}

RunResult run_serve_repeat(const Args& args) {
  RunResult out;
  // The span tracer stays off around the daemon: every run report embeds the
  // whole span buffer (CHANGES.md, FOUND), so traced reports would grow
  // without bound. Only the pipeline probe of a traced run records spans.

  // Set-up, timed step by step like a pass: the working set and its direct
  // answers, the daemon start and cache pre-fill, and one warm-up round.
  PassTimer setup(*args.kernel, 1);
  std::vector<BenchProgram> working;
  setup.time_op([&] { working = working_set(); });
  std::vector<std::unique_ptr<al::driver::ToolResult>> direct;
  for (const BenchProgram& p : working) {
    setup.time_op(
        [&] { direct.push_back(al::driver::run_tool(p.source, pipeline_options(p.procs))); });
  }
  FreshStream stream(args.seed, working);
  std::mt19937_64 rng(args.seed);
  std::vector<BenchProgram> fresh;
  std::vector<std::string> fresh_reports;
  std::string hit_sample;
  std::vector<Pass> passes;
  double setup_ms = 0.0, rss_after_setup = 0.0;
  long distinct = 0;
  al::service::ServiceSummary summary;
  al::perf::RunCacheStats cache;
  {
    std::unique_ptr<Daemon> started;
    setup.time_op([&] { started = std::make_unique<Daemon>(working, out); });
    Daemon& loopback = *started;
    for (std::size_t i = 0; i < working.size(); ++i) {
      const std::string why = check_report(loopback.prefill_reports()[i], *direct[i]);
      if (!why.empty()) out.fail_check(working[i].name + ": " + why);
    }
    // The warm-up round's operations are not counted.
    RunResult warm;
    setup.time_op(
        [&] { loopback.run_pass(1, rng, stream, fresh, fresh_reports, warm, nullptr, nullptr); });
    if (!warm.correct) out.fail_check("warm-up: " + warm.why);
    check_fresh(fresh, fresh_reports, out);
    setup_ms = setup.finish().ref_ms;
    rss_after_setup = current_rss_mb();

    // Measure until the passes themselves add up to --seconds; each pass's
    // fresh answers are checked between passes.
    double measured_ms = 0.0;
    while (measured_ms < args.seconds * 1000.0) {
      passes.push_back(
          loopback.run_pass(kRoundsPerPass, rng, stream, fresh, fresh_reports, out, args.kernel,
                           &hit_sample));
      measured_ms += passes.back().raw_ms;
      check_fresh(fresh, fresh_reports, out);
    }

    // Self-test: one corrupted hit must be rejected.
    if (hit_sample.empty()) {
      out.fail_check("self-test: no hit response was sampled");
    } else {
      const std::size_t expected = loopback.expected_hash(loopback.hit_sample_key());
      std::string corrupted = hit_sample;
      constexpr std::string_view kTotal = "\"total_cost_us\": ";
      const std::size_t at = corrupted.find(kTotal);
      if (!check_hit(hit_sample, expected).empty() || at == std::string::npos) {
        out.fail_check("self-test: the sampled hit does not pass its own check");
      } else {
        char& digit = corrupted[at + kTotal.size()];
        digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
        if (check_hit(corrupted, expected).empty())
          out.fail_check("self-test: a corrupted hit response passed the checks");
      }
    }
    std::tie(summary, cache) = loopback.finish();
    distinct = static_cast<long>(working.size()) + stream.drawn();
  }

  // Misses equal distinct programs, and the simulated run time of the
  // working set's chosen layouts (outside the timing).
  double sim_us = 0.0;
  for (const auto& r : direct)
    sim_us += al::sim::measure_program(*r->estimator, r->templ, r->spaces, r->selection.chosen,
                                       args.seed)
                  .total_us;
  if (static_cast<long>(summary.cache_misses) != distinct)
    out.fail_check("cache misses " + std::to_string(summary.cache_misses) +
                   " != distinct programs " + std::to_string(distinct));

  if (!args.trace) {
    add_end_to_end(out, passes, setup_ms, sim_us / 1000.0);
    std::fprintf(stderr, "perfbench: serve-repeat hit share %.4f (%lu hits, %lu misses)\n",
                 static_cast<double>(summary.cache_hits) /
                     static_cast<double>(summary.cache_hits + summary.cache_misses),
                 static_cast<unsigned long>(summary.cache_hits),
                 static_cast<unsigned long>(summary.cache_misses));
  } else {
    // Fixed-work probes: the working set plus one pass's fresh programs
    // through the pipeline layers, then one pass on a new daemon.
    std::vector<BenchProgram> probe_programs = working;
    FreshStream probe_stream(args.seed, working);
    std::vector<BenchProgram> probe_fresh;
    std::vector<std::string> probe_reports;
    std::mt19937_64 probe_rng(args.seed);
    RunResult probe;
    Daemon loopback(working, probe);
    loopback.run_pass(kRoundsPerPass, probe_rng, probe_stream, probe_fresh, probe_reports, probe,
                     nullptr, nullptr);
    check_fresh(probe_fresh, probe_reports, probe);
    if (!probe.correct) out.fail_check("probe pass: " + probe.why);
    const auto [probe_summary, probe_cache] = loopback.finish();
    probe_programs.insert(probe_programs.end(), probe_fresh.begin(), probe_fresh.end());
    add_pipeline_layers(out, probe_programs);
    add_codec_layers(out, working);
    add_server_layers(out, probe_summary, probe_cache);
    add_process_layers(out, passes, rss_after_setup);
  }
  return out;
}

} // namespace perfbench
