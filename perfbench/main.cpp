// pga_perfbench: runs one benchmark workload and prints its report as one
// JSON line on stdout. perfbench/run.py builds this program, runs it once
// per workload (so peak RSS belongs to that workload alone) and turns the
// report into the benchmark's result line.
//
// Usage: pga_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--workers N] [--trace-out PATH]
//   NAME       fleet-backlog | dag-large | assembly
//   --workers  worker threads (default: every core in the affinity mask);
//              more than the host's cores is refused
//   --trace-out  where a traced run writes its spans (JSON)
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "align/simd.hpp"
#include "bench.hpp"

namespace {

using namespace pga::perfbench;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

int usage() {
  std::cerr << "usage: pga_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--workers N] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  const std::size_t cores = host_cores();
  config.workers = cores;
  std::string trace_out;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--workers") {
        config.workers = std::stoul(value);
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || config.workload.empty() || config.seconds <= 0) return usage();
  if (config.workers == 0 || config.workers > cores) {
    std::cerr << "pga_perfbench: refusing " << config.workers << " workers on "
              << cores << " schedulable core(s)\n";
    return 2;
  }

  Tracer tracer;
  WorkloadReport report;
  try {
    if (config.workload == "fleet-backlog") {
      report = run_fleet_backlog(config, tracer);
    } else if (config.workload == "dag-large") {
      report = run_dag_large(config, tracer);
    } else if (config.workload == "assembly") {
      report = run_assembly(config, tracer);
    } else {
      std::cerr << "pga_perfbench: unknown workload " << config.workload << "\n";
      return 2;
    }
  } catch (const std::exception& err) {
    std::cerr << "pga_perfbench: " << config.workload << ": " << err.what() << "\n";
    return 1;
  }
  if (config.trace && !trace_out.empty() && !tracer.write(trace_out)) {
    report.check("trace written", false, trace_out);
  }

  std::ostringstream out;
  out << "{\"workload\": " << quoted(config.workload) << ", \"seed\": " << config.seed
      << ", \"trace\": " << (config.trace ? 1 : 0) << ", \"host\": {\"host_cores\": "
      << cores << ", \"workers\": " << config.workers
      << ", \"simd_isa\": " << quoted(pga::align::active_simd_isa())
      << ", \"fixed_layout\": " << (fixed_layout() ? "true" : "false")
      << ", \"compiler\": " << quoted(PGA_BENCH_COMPILER)
      << ", \"build_type\": " << quoted(PGA_BENCH_BUILD_TYPE) << "}"
      << ", \"passes\": " << report.passes << ", \"digest\": " << quoted(hex(report.digest))
      << ", \"pass_seconds\": [";
  for (std::size_t i = 0; i < report.pass_seconds.size(); ++i) {
    out << (i ? ", " : "") << number(report.pass_seconds[i]);
  }
  out << "], \"setup_seconds\": [";
  for (std::size_t i = 0; i < report.setup_seconds.size(); ++i) {
    out << (i ? ", " : "") << number(report.setup_seconds[i]);
  }
  out << "]" << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"checks\": [";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const Check& check = report.checks[i];
    out << (i ? ", " : "") << "{\"name\": " << quoted(check.name)
        << ", \"ok\": " << (check.ok ? "true" : "false")
        << ", \"detail\": " << quoted(check.detail) << "}";
  }
  out << "], \"end_to_end\": " << metrics_json(report.end_to_end)
      << ", \"results\": " << metrics_json(report.results)
      << ", \"layers\": " << metrics_json(report.layers) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
