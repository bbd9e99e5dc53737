// Per-layer metrics of a traced run (README.md, "Per-layer metrics"). They
// come from fixed amounts of work after the workload's traced passes --
// never from the timed runs -- so every count repeats exactly: the
// benchmark times its own calls into each layer's public entry point and
// reads the counters and spans the library already publishes
// (support::Metrics, stage.*, ilp.solve_mip, ilp.cuts).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "perf/run_cache.hpp"
#include "service/server.hpp"

namespace perfbench {

/// One NDJSON request for `program` (inline source, one estimation thread,
/// the run cache on -- the service's defaults).
[[nodiscard]] std::string request_line(const BenchProgram& program, const std::string& id);

/// Frontend .. selection: each program laid out once by run_tool with the
/// tracer on; stage times, alignment MIP statistics, estimator counters,
/// and the selection MIP re-solved under a MetricsScope for its counters.
void add_pipeline_layers(RunResult& out, const std::vector<BenchProgram>& programs);

/// Request decode and response encode, timed over the programs' request
/// lines and reports.
void add_codec_layers(RunResult& out, const std::vector<BenchProgram>& programs);

/// Service and run-cache figures of a finished server.
void add_server_layers(RunResult& out, const al::service::ServiceSummary& summary,
                       const al::perf::RunCacheStats& cache);

/// The service layers for a pipeline workload (serve.cpp): add_codec_layers
/// plus a loopback daemon sent every program twice, one miss then one hit.
void add_service_layers(RunResult& out, const std::vector<BenchProgram>& programs);

} // namespace perfbench
