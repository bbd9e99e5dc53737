// Serving-layer throughput/latency baseline (DESIGN.md sections 11 and 13):
// drives Server::run_batch over corpus request mixes and writes the medians
// to BENCH_service.json (in the working directory). Four scenarios:
//
//   * compute  -- every request is a real pipeline run, back to back (the
//     requests carry "run_cache": false, so repeats are not hits). On a
//     multi-core host this is where worker scaling shows up; on a
//     single-core host (the CI container: hardware_concurrency is recorded
//     in the output) compute-bound throughput cannot exceed 1x and the
//     row documents exactly that.
//   * mixed    -- each request carries think-time (the protocol's delay_ms
//     field) alongside the compute, the shape of a layout service embedded
//     in a build system that interleaves I/O-bound work. Workers overlap
//     the waits, so this row demonstrates the concurrency the queue and
//     worker pool actually buy even when cores are scarce.
//   * repeat90 / repeat98 -- the whole-run result cache's scenarios: ~90%
//     (resp. ~98%) of requests repeat an already-submitted (program,
//     options) triple and are served from the cache, the rest are fresh
//     keys that must compute. Hit and miss latency quantiles are reported
//     separately, plus the throughput multiple over this run's compute
//     1-worker row (the cache's whole value proposition: repeats cost a
//     hash, not a pipeline).
//
// Before writing the report the bench VERIFIES the cache's contract: the
// report served by a hit must match a cold (fresh-server) run of the same
// request on every semantically meaningful section -- everything except the
// wall-clock/observability blocks (stages, estimator_cache occupancy,
// metrics, trace, selection solve time). A mismatch exits nonzero; the
// service.cache_smoke ctest runs exactly this under --smoke.
//
// The multi-process fleet (DESIGN.md section 17) gets its own scaling
// series: shard_compute and shard_repeat90 drive a 1/2/4-shard
// SO_REUSEPORT fleet over real loopback TCP with pipelined client
// connections, and record throughput next to the fleet's cross-shard
// cache hit rate (the shard_cache block of the fleet summary). On a
// single-core host the curve is flat for compute -- the row records
// hardware_concurrency so the number stays honest -- while the repeat mix
// shows what the shared segment buys: repeats hit fleet-wide no matter
// which shard the kernel picked.
//
//   ./build/bench/service_bench [--smoke] [--verify-cache] [--shard-smoke]
//                               [runs-per-config]
//   (default 3 runs per config; --verify-cache = contract check only, the
//   service.cache_smoke ctest; --shard-smoke = 2-shard fleet under a mixed
//   hit/miss load with the cross-shard single-compute gate, the
//   service.shard_smoke ctest)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/text.hpp"

namespace {

using al::corpus::Dtype;
using al::corpus::TestCase;
using al::support::JsonValue;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<TestCase> corpus_mix() {
  return {{"adi", 32, Dtype::DoublePrecision, 4},
          {"erlebacher", 16, Dtype::DoublePrecision, 4},
          {"tomcatv", 32, Dtype::DoublePrecision, 4},
          {"shallow", 32, Dtype::Real, 4}};
}

/// One request line. `run_cache` false sends the protocol's "run_cache":
/// false option, so the request always runs the pipeline.
std::string request_line(const TestCase& c, const std::string& id,
                         long delay_ms = 0, bool run_cache = true) {
  std::ostringstream os;
  al::support::JsonWriter w(os, /*indent_width=*/-1);
  w.begin_object();
  w.kv("schema", al::service::kRequestSchema);
  w.kv("schema_version", al::service::kProtocolVersion);
  w.kv("id", id);
  w.kv("source", al::corpus::source_for(c));
  if (delay_ms > 0) w.kv("delay_ms", delay_ms);
  w.key("options").begin_object();
  w.kv("procs", c.procs);
  if (!run_cache) w.kv("run_cache", false);
  w.end_object();
  w.end_object();
  return os.str();
}

/// NDJSON input of `count` requests round-robining over the corpus mix,
/// each with the run cache off: the compute and mixed scenarios measure
/// real pipeline runs, and with the cache on 20 of 24 requests would be
/// repeats served as hits.
std::string make_input(int count, long delay_ms) {
  const std::vector<TestCase> mix = corpus_mix();
  std::string input;
  for (int i = 0; i < count; ++i) {
    const TestCase& c = mix[static_cast<std::size_t>(i) % mix.size()];
    input += request_line(c, c.program + "-" + std::to_string(i), delay_ms,
                          /*run_cache=*/false);
  }
  return input;
}

/// Cache-scenario input: every `unique_every`-th request is a FRESH
/// (program, n, procs) triple nobody submitted before (a guaranteed cache
/// miss); everything else repeats the 4-program working set (hits once the
/// working set is warm). unique_every = 10 gives the ~90% repeat mix,
/// 50 the ~98% one.
std::string make_repeat_input(int count, int unique_every) {
  const std::vector<TestCase> mix = corpus_mix();
  std::string input;
  int fresh = 0;
  for (int i = 0; i < count; ++i) {
    if (i % unique_every == 0) {
      // Vary n and procs so every fresh request is a distinct cache key.
      const TestCase unique{"adi", 16 + 4 * (fresh / 14),
                            Dtype::DoublePrecision, 2 + fresh % 14};
      input += request_line(unique, "fresh-" + std::to_string(fresh));
      ++fresh;
    } else {
      const TestCase& c = mix[static_cast<std::size_t>(i) % mix.size()];
      input += request_line(c, c.program + "-" + std::to_string(i));
    }
  }
  return input;
}

struct Row {
  std::string scenario;
  int workers = 0;
  int requests = 0;
  long delay_ms = 0;
  int runs = 0;
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double speedup = 1.0;  // vs the 1-worker row of the same scenario
  // Run-cache scenarios only:
  bool cache_scenario = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double hit_p50_ms = 0.0, hit_p95_ms = 0.0, hit_p99_ms = 0.0;
  double miss_p50_ms = 0.0, miss_p95_ms = 0.0, miss_p99_ms = 0.0;
  double speedup_vs_compute_1w = 0.0;   // vs this run's compute 1-worker row
  double speedup_vs_pr4_baseline = 0.0; // vs the recorded PR-4 single-worker
                                        // compute baseline (the >= 10x target)
};

/// The committed single-worker compute throughput the run cache was built
/// against (BENCH_service.json before this change, hardware_concurrency 1).
constexpr double kPr4Compute1wBaselineRps = 79.66821032;

Row run_config(const std::string& scenario, const std::string& input,
               int workers, int requests, long delay_ms, int runs) {
  Row row;
  row.scenario = scenario;
  row.workers = workers;
  row.requests = requests;
  row.delay_ms = delay_ms;
  row.runs = runs;

  std::vector<double> walls, p50s, p95s, p99s, maxs;
  std::vector<double> hit50s, hit95s, hit99s, miss50s, miss95s, miss99s;
  for (int r = 0; r < runs; ++r) {
    al::service::ServerOptions opts;
    opts.workers = workers;
    opts.queue_capacity = static_cast<std::size_t>(requests) + 1;
    al::service::Server server(opts);
    std::istringstream in(input);
    std::ostringstream out;
    if (server.run_batch(in, out) != 0) {
      std::fprintf(stderr, "service_bench: batch run failed\n");
      std::exit(1);
    }
    const al::service::ServiceSummary s = server.summary();
    if (s.ok != static_cast<std::uint64_t>(requests)) {
      std::fprintf(stderr, "service_bench: %llu/%d requests ok\n",
                   static_cast<unsigned long long>(s.ok), requests);
      std::exit(1);
    }
    walls.push_back(s.wall_ms);
    p50s.push_back(s.p50_ms);
    p95s.push_back(s.p95_ms);
    p99s.push_back(s.p99_ms);
    maxs.push_back(s.max_ms);
    hit50s.push_back(s.hit_p50_ms);
    hit95s.push_back(s.hit_p95_ms);
    hit99s.push_back(s.hit_p99_ms);
    miss50s.push_back(s.miss_p50_ms);
    miss95s.push_back(s.miss_p95_ms);
    miss99s.push_back(s.miss_p99_ms);
    row.cache_hits = s.cache_hits;    // deterministic per input; last run's
    row.cache_misses = s.cache_misses;
  }
  row.wall_ms = median(walls);
  row.throughput_rps =
      row.wall_ms > 0.0 ? static_cast<double>(requests) / (row.wall_ms / 1e3) : 0.0;
  row.p50_ms = median(p50s);
  row.p95_ms = median(p95s);
  row.p99_ms = median(p99s);
  row.max_ms = median(maxs);
  row.hit_p50_ms = median(hit50s);
  row.hit_p95_ms = median(hit95s);
  row.hit_p99_ms = median(hit99s);
  row.miss_p50_ms = median(miss50s);
  row.miss_p95_ms = median(miss95s);
  row.miss_p99_ms = median(miss99s);
  return row;
}

// ---------------------------------------------------------------------------
// Hit-vs-cold verification
// ---------------------------------------------------------------------------

/// Canonical serialization of a report with the volatile (wall-clock and
/// observability) parts removed: the top-level stages/estimator_cache/
/// metrics/trace sections and the selection's solve_ms. What remains is the
/// semantic payload -- layouts, costs, provenance -- which a cache hit must
/// reproduce exactly.
void semantic_subset(const JsonValue& v, std::string& out, int depth = 0) {
  switch (v.kind()) {
    case JsonValue::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, val] : v.members()) {
        if (depth == 0 && (key == "stages" || key == "estimator_cache" ||
                           key == "counters" || key == "gauges" ||
                           key == "trace"))
          continue;
        if (key == "solve_ms") continue;
        if (!first) out += ',';
        first = false;
        out += '"';
        out += key;
        out += "\":";
        semantic_subset(val, out, depth + 1);
      }
      out += '}';
      return;
    }
    case JsonValue::Kind::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out += ',';
        first = false;
        semantic_subset(item, out, depth + 1);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::String:
      out += '"';
      out += al::support::JsonWriter::escape(v.as_string());
      out += '"';
      return;
    case JsonValue::Kind::Number:
      out += v.number_lexeme();
      return;
    case JsonValue::Kind::Bool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::Null:
      out += "null";
      return;
  }
}

/// One batch -> parsed responses in input order.
std::vector<JsonValue> run_lines(const std::string& input) {
  al::service::ServerOptions opts;
  opts.workers = 1;
  al::service::Server server(opts);
  std::istringstream in(input);
  std::ostringstream out;
  if (server.run_batch(in, out) != 0) {
    std::fprintf(stderr, "service_bench: verification batch failed\n");
    std::exit(1);
  }
  std::vector<JsonValue> docs;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(line, doc, error)) {
      std::fprintf(stderr, "service_bench: bad response JSON: %s\n", error.c_str());
      std::exit(1);
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::string report_subset(const JsonValue& response, const char* what) {
  const JsonValue* report = response.find("report");
  if (report == nullptr) {
    std::fprintf(stderr, "service_bench: %s response carries no report\n", what);
    std::exit(1);
  }
  std::string subset;
  semantic_subset(*report, subset);
  return subset;
}

/// The acceptance check: a hit-served report equals a COLD run's report
/// (fresh server, so a genuinely independent compute) on the semantic
/// subset, for every corpus program. Exits nonzero on any divergence.
void verify_hit_matches_cold() {
  for (const TestCase& c : corpus_mix()) {
    // Fresh server: one cold compute.
    const std::vector<JsonValue> cold = run_lines(request_line(c, "cold"));
    // Second fresh server: the same request twice; the repeat is the hit.
    const std::vector<JsonValue> pair =
        run_lines(request_line(c, "w") + request_line(c, "h"));
    if (cold.size() != 1 || pair.size() != 2) {
      std::fprintf(stderr, "service_bench: verification got %zu+%zu responses\n",
                   cold.size(), pair.size());
      std::exit(1);
    }
    const JsonValue* disposition = pair[1].find("cache");
    if (disposition == nullptr || disposition->as_string() != "hit") {
      std::fprintf(stderr, "service_bench: %s repeat was not served as a hit\n",
                   c.program.c_str());
      std::exit(1);
    }
    const std::string cold_subset = report_subset(cold[0], "cold");
    const std::string hit_subset = report_subset(pair[1], "hit");
    if (cold_subset != hit_subset) {
      // Leave the full payloads on disk for diagnosis.
      std::ofstream("cache_verify_cold.json") << cold_subset << '\n';
      std::ofstream("cache_verify_hit.json") << hit_subset << '\n';
      std::fprintf(stderr,
                   "service_bench: %s hit report DIVERGES from cold run "
                   "(full subsets in cache_verify_{cold,hit}.json)\n"
                   "  cold: %.200s...\n  hit:  %.200s...\n",
                   c.program.c_str(), cold_subset.c_str(), hit_subset.c_str());
      std::exit(1);
    }
    std::printf("verify   %-10s hit report == cold report (%zu bytes compared)\n",
                c.program.c_str(), cold_subset.size());
  }
}

// ---------------------------------------------------------------------------
// Shard fleet scaling (DESIGN.md section 17)
// ---------------------------------------------------------------------------

std::uint64_t num_at(const JsonValue* obj, std::string_view key) {
  if (obj == nullptr) return 0;
  const JsonValue* v = obj->find(key);
  return v != nullptr && v->is_number()
             ? static_cast<std::uint64_t>(v->as_double())
             : 0;
}

double dbl_at(const JsonValue* obj, std::string_view key) {
  if (obj == nullptr) return 0.0;
  const JsonValue* v = obj->find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// One pipelined loopback connection's worth of load: connect (with retries
/// -- right after start() the shard listeners may still be coming up), send
/// every line, read until the same number of response lines arrived. The
/// raw bytes are kept so ok-counting happens outside the timed region.
struct ClientSlice {
  std::string payload;
  int expected_lines = 0;
  std::string raw;
  int lines = 0;
};

void drive_slice(int port, ClientSlice& slice) {
  int fd = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      break;
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::size_t off = 0;
  while (off < slice.payload.size()) {
    const ssize_t n = ::send(fd, slice.payload.data() + off,
                             slice.payload.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  char chunk[1 << 16];
  while (slice.lines < slice.expected_lines) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i)
      if (chunk[i] == '\n') ++slice.lines;
    slice.raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

struct ShardRow {
  std::string scenario;
  int shards = 0;
  int clients = 0;
  int requests = 0;
  int runs = 0;
  double wall_ms = 0.0;        ///< client-measured: connect -> last response
  double throughput_rps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;  // merged-histogram fleet
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double cache_hit_rate = 0.0;
  std::uint64_t shard_cache_hits = 0, shard_cache_fills = 0;
  double shard_cache_hit_rate = 0.0;
  std::string cache_mode;
  double speedup = 1.0;  ///< vs the 1-shard row of the same scenario
};

/// One fleet configuration: `runs` cold fleets, each driven by
/// 2*shards pipelined connections splitting `lines` round-robin. The wall
/// clock covers only the client drive (fleet startup/teardown excluded);
/// cache and latency stats come from the LAST run's fleet summary.
ShardRow run_shard_config(const std::string& scenario,
                          const std::vector<std::string>& lines, int shards,
                          int runs) {
  ShardRow row;
  row.scenario = scenario;
  row.shards = shards;
  row.requests = static_cast<int>(lines.size());
  row.runs = runs;
  const int nclients =
      std::min<int>(row.requests, std::max(2, 2 * shards));
  row.clients = nclients;

  std::vector<double> walls;
  for (int r = 0; r < runs; ++r) {
    std::vector<ClientSlice> slices(static_cast<std::size_t>(nclients));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ClientSlice& s = slices[i % static_cast<std::size_t>(nclients)];
      s.payload += lines[i];
      ++s.expected_lines;
    }

    al::service::ShardOptions sopts;
    sopts.shards = shards;
    sopts.server.workers = 1;
    sopts.server.queue_capacity = static_cast<std::size_t>(row.requests) + 1;
    sopts.server.grace_ms = 2'000;
    al::service::ShardSupervisor supervisor(sopts);
    if (!supervisor.start()) {
      std::fprintf(stderr, "service_bench: fleet start failed (%d shards)\n",
                   shards);
      std::exit(1);
    }
    int rc = -1;
    std::thread runner([&] { rc = supervisor.run(); });

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(slices.size());
    for (ClientSlice& s : slices)
      drivers.emplace_back(
          [&s, port = supervisor.port()] { drive_slice(port, s); });
    for (std::thread& t : drivers) t.join();
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    supervisor.request_stop();
    runner.join();
    if (rc != 0) {
      std::fprintf(stderr, "service_bench: fleet run rc=%d (%d shards)\n", rc,
                   shards);
      std::exit(1);
    }
    int received = 0;
    for (const ClientSlice& s : slices) {
      received += s.lines;
      if (s.lines != s.expected_lines) {
        std::fprintf(stderr,
                     "service_bench: connection got %d/%d responses "
                     "(%d shards)\n",
                     s.lines, s.expected_lines, shards);
        std::exit(1);
      }
    }

    JsonValue summary;
    std::string error;
    if (!JsonValue::parse(supervisor.fleet_summary_json(-1), summary, error)) {
      std::fprintf(stderr, "service_bench: bad fleet summary: %s\n",
                   error.c_str());
      std::exit(1);
    }
    const JsonValue* requests = summary.find("requests");
    if (num_at(requests, "ok") != static_cast<std::uint64_t>(row.requests)) {
      std::fprintf(stderr,
                   "service_bench: fleet answered %llu/%d ok (%d shards)\n",
                   static_cast<unsigned long long>(num_at(requests, "ok")),
                   row.requests, shards);
      std::exit(1);
    }
    walls.push_back(wall);
    const JsonValue* cache = summary.find("cache");
    row.cache_hits = num_at(cache, "hits");
    row.cache_misses = num_at(cache, "misses");
    row.cache_hit_rate = dbl_at(cache, "hit_rate");
    const JsonValue* shard_cache = summary.find("shard_cache");
    row.shard_cache_hits = num_at(shard_cache, "hits");
    row.shard_cache_fills = num_at(shard_cache, "fills");
    row.shard_cache_hit_rate = dbl_at(shard_cache, "hit_rate");
    const JsonValue* mode = summary.find("cache_mode");
    row.cache_mode = mode != nullptr ? std::string(mode->as_string()) : "";
    const JsonValue* lat = summary.find("latency_ms");
    row.p50_ms = dbl_at(lat, "p50");
    row.p95_ms = dbl_at(lat, "p95");
    row.p99_ms = dbl_at(lat, "p99");
    (void)received;
  }
  row.wall_ms = median(walls);
  row.throughput_rps = row.wall_ms > 0.0
                           ? static_cast<double>(row.requests) /
                                 (row.wall_ms / 1e3)
                           : 0.0;
  return row;
}

/// The service.shard_smoke gate: a 2-shard fleet under a mixed hit/miss
/// load must (a) answer everything, (b) run in shared cache mode, and
/// (c) compute every distinct key exactly ONCE fleet-wide -- the number of
/// fleet misses equals the number of distinct keys in the load, no matter
/// how the kernel spread the connections. Exits nonzero on any violation.
int run_shard_smoke() {
  verify_hit_matches_cold();

  // 40 requests, 4 fresh singletons + the 4-program working set repeated:
  // 8 distinct keys, 32 guaranteed repeats.
  constexpr int kRequests = 40;
  constexpr int kDistinctKeys = 8;
  std::vector<std::string> lines;
  {
    std::istringstream in(make_repeat_input(kRequests, 10));
    std::string line;
    while (std::getline(in, line)) lines.push_back(line + "\n");
  }
  ShardRow row = run_shard_config("shard_smoke", lines, /*shards=*/2,
                                  /*runs=*/1);
  std::printf("shard_smoke  2 shards  %d requests over %d connections  "
              "%.1f ms  hits=%llu misses=%llu  mode=%s\n",
              row.requests, row.clients, row.wall_ms,
              static_cast<unsigned long long>(row.cache_hits),
              static_cast<unsigned long long>(row.cache_misses),
              row.cache_mode.c_str());
  if (row.cache_mode != "shared") {
    std::fprintf(stderr,
                 "service_bench: fleet cache mode is \"%s\", want shared\n",
                 row.cache_mode.c_str());
    return 1;
  }
  if (row.cache_misses != kDistinctKeys ||
      row.cache_hits != kRequests - kDistinctKeys) {
    std::fprintf(stderr,
                 "service_bench: cross-shard gate FAILED: %llu misses / %llu "
                 "hits, want exactly %d misses (one compute per distinct key "
                 "fleet-wide) and %d hits\n",
                 static_cast<unsigned long long>(row.cache_misses),
                 static_cast<unsigned long long>(row.cache_hits),
                 kDistinctKeys, kRequests - kDistinctKeys);
    return 1;
  }
  std::printf("cross-shard gate ok: %d distinct keys -> %llu computes, "
              "%llu repeat hits (shard_cache fills=%llu hits=%llu)\n",
              kDistinctKeys,
              static_cast<unsigned long long>(row.cache_misses),
              static_cast<unsigned long long>(row.cache_hits),
              static_cast<unsigned long long>(row.shard_cache_fills),
              static_cast<unsigned long long>(row.shard_cache_hits));
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // Client sends race fleet teardown in the shard scenarios; an RST must
  // not kill the bench.
  std::signal(SIGPIPE, SIG_IGN);
  bool smoke = false;
  bool verify_only = false;
  bool shard_smoke = false;
  int runs = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--verify-cache") == 0) {
      // The service.cache_smoke ctest: just the hit-vs-cold contract plus a
      // tiny repeat mix, no BENCH_service.json rewrite.
      verify_only = true;
      smoke = true;
    } else if (std::strcmp(argv[i], "--shard-smoke") == 0) {
      // The service.shard_smoke ctest: hit-vs-cold contract + the 2-shard
      // cross-shard single-compute gate, no BENCH_service.json rewrite.
      shard_smoke = true;
    } else if (!al::parse_int(argv[i], 1, 1'000'000, runs)) {
      // Strict whole-lexeme parse: "3x" or "abc" is a usage error, not 3 or
      // a silent 1 the way atoi would have it.
      std::fprintf(stderr,
                   "usage: service_bench [--smoke] [--verify-cache] "
                   "[--shard-smoke] [runs]\n"
                   "  runs must be an integer in [1, 1000000], got \"%s\"\n",
                   argv[i]);
      return 1;
    }
  }
  if (shard_smoke) return run_shard_smoke();
  if (verify_only) {
    verify_hit_matches_cold();
    const int n = 20;
    Row row = run_config("repeat90", make_repeat_input(n, 10), 1, n, 0, 1);
    if (row.cache_hits == 0) {
      std::fprintf(stderr, "service_bench: repeat mix produced no cache hits\n");
      return 1;
    }
    std::printf("cache verification ok (%llu hits / %llu misses in repeat mix)\n",
                static_cast<unsigned long long>(row.cache_hits),
                static_cast<unsigned long long>(row.cache_misses));
    return 0;
  }
  // Smoke: one repetition of a tiny mix at 1/2 workers -- enough to prove
  // the harness end to end in CI without owning the machine for minutes.
  if (smoke) runs = 1;
  const int requests = smoke ? 8 : 24;
  const int repeat_requests = smoke ? 20 : 200;
  const long think_ms = smoke ? 10 : 50;
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 4, 8};
  const std::vector<int> cache_worker_counts =
      smoke ? std::vector<int>{1} : std::vector<int>{1, 4};

  // The cache contract first: a broken cache makes the throughput rows
  // meaningless.
  verify_hit_matches_cold();

  std::vector<Row> rows;
  double compute_1w_rps = 0.0;
  for (const char* scenario : {"compute", "mixed"}) {
    const long delay = std::strcmp(scenario, "mixed") == 0 ? think_ms : 0;
    const std::string input = make_input(requests, delay);
    double base_rps = 0.0;
    for (const int workers : worker_counts) {
      Row row = run_config(scenario, input, workers, requests, delay, runs);
      if (workers == 1) base_rps = row.throughput_rps;
      if (workers == 1 && std::strcmp(scenario, "compute") == 0)
        compute_1w_rps = row.throughput_rps;
      row.speedup = base_rps > 0.0 ? row.throughput_rps / base_rps : 1.0;
      std::printf("%-8s workers=%d  wall=%8.1f ms  %6.2f req/s  "
                  "p50=%7.1f  p95=%7.1f  p99=%7.1f  speedup=%.2fx\n",
                  row.scenario.c_str(), row.workers, row.wall_ms,
                  row.throughput_rps, row.p50_ms, row.p95_ms, row.p99_ms,
                  row.speedup);
      rows.push_back(std::move(row));
    }
  }

  const std::pair<const char*, int> repeat_scenarios[] = {{"repeat90", 10},
                                                          {"repeat98", 50}};
  for (const auto& [scenario, unique_every] : repeat_scenarios) {
    const std::string input = make_repeat_input(repeat_requests, unique_every);
    double base_rps = 0.0;
    for (const int workers : cache_worker_counts) {
      Row row =
          run_config(scenario, input, workers, repeat_requests, 0, runs);
      row.cache_scenario = true;
      if (workers == 1) base_rps = row.throughput_rps;
      row.speedup = base_rps > 0.0 ? row.throughput_rps / base_rps : 1.0;
      row.speedup_vs_compute_1w =
          compute_1w_rps > 0.0 ? row.throughput_rps / compute_1w_rps : 0.0;
      row.speedup_vs_pr4_baseline = row.throughput_rps / kPr4Compute1wBaselineRps;
      std::printf(
          "%-8s workers=%d  wall=%8.1f ms  %7.2f req/s  hits=%llu misses=%llu  "
          "hit p50/p95/p99=%5.2f/%5.2f/%5.2f ms  miss p50/p95/p99=%5.1f/%5.1f/"
          "%5.1f ms  vs compute-1w=%.1fx  vs pr4-baseline=%.1fx\n",
          row.scenario.c_str(), row.workers, row.wall_ms, row.throughput_rps,
          static_cast<unsigned long long>(row.cache_hits),
          static_cast<unsigned long long>(row.cache_misses), row.hit_p50_ms,
          row.hit_p95_ms, row.hit_p99_ms, row.miss_p50_ms, row.miss_p95_ms,
          row.miss_p99_ms, row.speedup_vs_compute_1w,
          row.speedup_vs_pr4_baseline);
      rows.push_back(std::move(row));
    }
  }

  // The fleet scaling series: the same compute and repeat90 mixes, but over
  // real loopback TCP against a 1/2/4-shard SO_REUSEPORT fleet (1 worker
  // per shard, so the curve isolates process scaling).
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  std::vector<ShardRow> shard_rows;
  const std::pair<const char*, bool> shard_scenarios[] = {
      {"shard_compute", false}, {"shard_repeat90", true}};
  for (const auto& [scenario, repeat_mix] : shard_scenarios) {
    std::vector<std::string> lines;
    {
      std::istringstream in(repeat_mix ? make_repeat_input(repeat_requests, 10)
                                       : make_input(requests, 0));
      std::string line;
      while (std::getline(in, line)) lines.push_back(line + "\n");
    }
    double base_rps = 0.0;
    for (const int shards : shard_counts) {
      ShardRow row = run_shard_config(scenario, lines, shards, runs);
      if (shards == 1) base_rps = row.throughput_rps;
      row.speedup = base_rps > 0.0 ? row.throughput_rps / base_rps : 1.0;
      std::printf("%-14s shards=%d  wall=%8.1f ms  %7.2f req/s  "
                  "p50=%6.2f p95=%6.2f  cache hit_rate=%.2f  "
                  "shard_cache hits=%llu fills=%llu  speedup=%.2fx\n",
                  row.scenario.c_str(), row.shards, row.wall_ms,
                  row.throughput_rps, row.p50_ms, row.p95_ms,
                  row.cache_hit_rate,
                  static_cast<unsigned long long>(row.shard_cache_hits),
                  static_cast<unsigned long long>(row.shard_cache_fills),
                  row.speedup);
      shard_rows.push_back(std::move(row));
    }
  }

  std::ofstream out("BENCH_service.json");
  al::support::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "autolayout.bench.service");
  w.kv("schema_version", 3);  // v2: repeat90/repeat98 rows + cache fields;
                              // v3: shard_rows fleet scaling series
  w.kv("smoke", smoke);
  w.kv("hardware_concurrency",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("requests_per_run", requests);
  w.kv("repeat_requests_per_run", repeat_requests);
  w.kv("pr4_compute_1w_baseline_rps", kPr4Compute1wBaselineRps);
  w.kv("runs_per_config", runs);
  w.kv("mixed_think_ms", think_ms);
  w.key("corpus").begin_array();
  for (const TestCase& c : corpus_mix()) w.value(c.program);
  w.end_array();
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("scenario", r.scenario);
    w.kv("workers", r.workers);
    w.kv("requests", r.requests);
    w.kv("delay_ms", r.delay_ms);
    w.kv("runs", r.runs);
    w.kv("wall_ms", r.wall_ms);
    w.kv("throughput_rps", r.throughput_rps);
    w.kv("latency_p50_ms", r.p50_ms);
    w.kv("latency_p95_ms", r.p95_ms);
    w.kv("latency_p99_ms", r.p99_ms);
    w.kv("latency_max_ms", r.max_ms);
    w.kv("speedup_vs_1_worker", r.speedup);
    w.kv("cache_hits", r.cache_hits);
    w.kv("cache_misses", r.cache_misses);
    if (r.cache_scenario) {
      w.kv("hit_latency_p50_ms", r.hit_p50_ms);
      w.kv("hit_latency_p95_ms", r.hit_p95_ms);
      w.kv("hit_latency_p99_ms", r.hit_p99_ms);
      w.kv("miss_latency_p50_ms", r.miss_p50_ms);
      w.kv("miss_latency_p95_ms", r.miss_p95_ms);
      w.kv("miss_latency_p99_ms", r.miss_p99_ms);
      w.kv("speedup_vs_compute_1_worker", r.speedup_vs_compute_1w);
      w.kv("speedup_vs_pr4_baseline", r.speedup_vs_pr4_baseline);
    }
    w.end_object();
  }
  w.end_array();
  w.key("shard_rows").begin_array();
  for (const ShardRow& r : shard_rows) {
    w.begin_object();
    w.kv("scenario", r.scenario);
    w.kv("shards", r.shards);
    w.kv("client_connections", r.clients);
    w.kv("requests", r.requests);
    w.kv("runs", r.runs);
    w.kv("wall_ms", r.wall_ms);
    w.kv("throughput_rps", r.throughput_rps);
    w.kv("latency_p50_ms", r.p50_ms);
    w.kv("latency_p95_ms", r.p95_ms);
    w.kv("latency_p99_ms", r.p99_ms);
    w.kv("cache_mode", r.cache_mode);
    w.kv("cache_hits", r.cache_hits);
    w.kv("cache_misses", r.cache_misses);
    w.kv("cache_hit_rate", r.cache_hit_rate);
    w.kv("shard_cache_hits", r.shard_cache_hits);
    w.kv("shard_cache_fills", r.shard_cache_fills);
    w.kv("shard_cache_hit_rate", r.shard_cache_hit_rate);
    w.kv("speedup_vs_1_shard", r.speedup);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
