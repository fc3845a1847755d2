// Shared pieces of the repository benchmark: the run configuration, the
// report every workload fills, sample statistics, peak-RSS bookkeeping and
// the in-memory span tracer.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions (never inside the library). A layer's self time
// is its spans' durations minus what their child spans and buckets cover;
// the self times of every layer plus the root span's own remainder
// ("other") add up to the root span's wall time by construction.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/summary.hpp"

namespace pga::common {
class ThreadPool;
}

namespace pga::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// What one invocation runs.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measurement window for the passes
  bool trace = false;   ///< traced run: per-layer metrics instead of end-to-end
  /// Threads doing work: a pool of workers - 1 plus the calling thread,
  /// which joins every ThreadPool::parallel_for.
  std::size_t workers = 1;
};

/// The pool for `workers` threads (none when the caller works alone).
std::unique_ptr<common::ThreadPool> make_pool(std::size_t workers);

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One output check; a failed check makes the run incorrect.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything a workload reports back to main().
struct WorkloadReport {
  /// The contract's end-to-end metrics: work_per_s, setup_s, peak_rss_mb.
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> layers;
  /// Workload-specific results under the names the workload defines
  /// (jobs_per_s, fail_ratio, simulated makespans, assembly quality).
  std::vector<Metric> results;
  std::vector<Check> checks;
  std::size_t attempted = 0;  ///< workflows / DAGs / clusters attempted
  std::size_t failed = 0;     ///< of those, failed or failing a check
  std::size_t passes = 0;     ///< measured passes over the input
  /// Fingerprint of the outputs, the same in every run of one seed (so
  /// runs can be compared with each other, not only passes within a run).
  std::uint64_t digest = 0;
  std::vector<double> pass_seconds;   ///< wall of each untraced pass, in order
  std::vector<double> setup_seconds;  ///< every set-up sample, in order

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void result(std::string name, double value, std::string unit) {
    results.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

/// `values` as a common::Summary (median, sum, ...).
common::Summary summarize(const std::vector<double>& values);

/// The highest percentile that still has at least ten samples above it,
/// capped at p99, with its value — the tail a sample of this size supports.
struct Tail {
  double percentile = 50;  ///< e.g. 99 or 98.5
  double value = 0;
  std::size_t samples = 0;
};
Tail supported_tail(std::vector<double> values);

/// "p99", "p98.5": a percentile as it appears in a metric name.
std::string percentile_label(double p);

/// Drops freed heap pages and resets the kernel's peak-RSS mark so the next
/// peak_rss_mb() reading belongs to what runs after this call. Returns
/// false when /proc/self/clear_refs cannot be written.
bool reset_peak_rss();
/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Cores this process may run on (its affinity mask).
std::size_t host_cores();
/// True when this process runs with address-space randomization off.
bool fixed_layout();

/// In-memory span recorder. Not thread-safe: spans are opened and closed
/// on the benchmark's driving thread only.
class Tracer {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xFFFFFFFFu;

  /// A frequently-called boundary aggregated into a count plus busy time,
  /// charged as a child of the span that was open when it was created.
  struct Bucket {
    std::string name;
    Id parent = kNone;
    std::uint64_t count = 0;
    double busy_seconds = 0;
  };

  /// Opens a span under the innermost open span. `request` groups the
  /// spans of one request (a pass, a workflow, a cluster).
  Id begin(std::string_view name, std::uint64_t request);
  /// Closes `id`, which must be the innermost open span.
  void end(Id id);
  /// A new bucket under the innermost open span; the reference stays valid
  /// for the tracer's lifetime.
  Bucket& bucket(std::string_view name);

  /// The self times under root span `root`, per layer.
  struct Accounting {
    double wall = 0;                      ///< the root's duration
    std::map<std::string, double> self;   ///< per layer; the root's own is "other"
    bool adds_up = false;  ///< no negative self time, and the sum equals `wall`
    [[nodiscard]] double of(const std::string& layer) const;
  };
  [[nodiscard]] Accounting account(Id root) const;
  /// Wall seconds of a closed span.
  [[nodiscard]] double duration(Id id) const;
  /// Durations of the spans called `name` under `root`, in open order.
  [[nodiscard]] std::vector<double> durations(Id root, std::string_view name) const;

  /// Writes every span and bucket as JSON to `path`; false on I/O error.
  bool write(const std::string& path) const;

  /// Layer of a span name: the part before the first '.'.
  static std::string layer_of(std::string_view name);

 private:
  struct Span {
    std::string name;
    Id parent = kNone;
    std::uint64_t request = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  /// 1 for `root` and every span below it, by span id.
  [[nodiscard]] std::vector<char> subtree(Id root) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::deque<Bucket> buckets_;
  std::vector<Id> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, request) : Tracer::kNone) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] Tracer::Id id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Id id_;
};

/// The workloads' entry points, one translation unit each.
WorkloadReport run_fleet_backlog(const RunConfig& config, Tracer& tracer);
WorkloadReport run_dag_large(const RunConfig& config, Tracer& tracer);
WorkloadReport run_assembly(const RunConfig& config, Tracer& tracer);

/// Runs `body(r)` for r in [0, replicas) at once, one thread each; r = 0
/// runs on the calling thread. The first exception a replica throws is
/// rethrown here once every replica has finished.
template <typename Body>
void run_replicas(std::size_t replicas, Body&& body) {
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto guarded = [&](std::size_t r) {
    try {
      body(r);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t r = 1; r < replicas; ++r) threads.emplace_back(guarded, r);
  guarded(0);
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

/// Seconds one `make()` call takes: the mean of `batch` timed calls (a
/// batch averages the clock's granularity out of set-ups of a
/// microsecond). Each call's result is destroyed after its timing ends, so
/// destruction is never timed and every call starts from the same
/// allocator state.
template <typename Make>
double time_setup(Make&& make, std::size_t batch) {
  double total = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const auto start = Clock::now();
    const auto made = make();
    total += seconds_since(start);
  }
  return total / static_cast<double>(batch);
}

/// One set-up sample: time_setup on `workers` threads at once, and the
/// fastest of them. The cores of a shared host run at different, changing
/// speeds; a set-up timed on one core flipped between two speeds almost 2x
/// apart, while the fastest core's time holds still. Workloads take one
/// sample before every pass, so their median spans the whole window.
template <typename Make>
double sample_setup(std::size_t workers, Make&& make, std::size_t batch) {
  std::vector<double> each(workers);
  run_replicas(workers, [&](std::size_t r) { each[r] = time_setup(make, batch); });
  return *std::min_element(each.begin(), each.end());
}

/// Whether to start another pass after `done` passes, the last of which
/// took `last_pass_s`: at least three (four when traced, so that traced
/// and untraced passes number two or more each), then while the next pass
/// would end, on average, inside the `config.seconds` window that opened
/// at `start`.
inline bool more_passes(const RunConfig& config, std::size_t done, Clock::time_point start,
                        double last_pass_s) {
  return done < (config.trace ? 4u : 3u) ||
         seconds_since(start) + 0.5 * last_pass_s < config.seconds;
}

/// Whether pass `done` of a run is traced: every other one in traced runs.
inline bool traced_pass(const RunConfig& config, std::size_t done) {
  return config.trace && done % 2 == 1;
}

/// Adds the accounting check and the trace.* metrics: the traced wall, the
/// part of it no layer accounts for, and the traced-over-untraced overhead
/// from the median pass walls of the same run.
void add_trace_metrics(WorkloadReport& report, double wall, double other, bool adds_up,
                       const std::vector<double>& traced_walls,
                       const std::vector<double>& untraced_walls);

}  // namespace pga::perfbench
