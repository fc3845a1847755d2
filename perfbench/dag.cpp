// dag-large: one large blast2cap3 DAG, materialized by
// workload::build_concrete_streamed and drained by a lean-report
// DagmanEngine over a SimService on the paper's 512-slot Sandhills
// allocation. No admission: this is the engine-alone reference.
//
// Set-up is the event queue, platform, service and engine, sampled before
// every round; the timed work is build + run. The engine is single-
// threaded, so a round runs one replica pass per worker thread at once,
// each building its own copy of the DAG on that thread; throughput is the
// sum of the replicas' rates. Replica 0 runs on the calling thread and is
// the only one traced: its SimService is wrapped in a timing decorator
// (aggregated count + busy time) and its engine events are counted.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "workload/generator.hpp"
#include "workload/streamed.hpp"

namespace pga::perfbench {
namespace {

constexpr std::size_t kDagWorkers = 50'000;   // run_cap3 jobs in the DAG
constexpr std::size_t kSandhillsSlots = 512;  // the paper's allocation
// Constructions timed per set-up sample and thread.
constexpr std::size_t kSetupBatch = 200;

/// Forwards every call to `inner`, charging the pump calls (submit, wait,
/// wait_for, poll) to one tracer bucket.
class TimedService final : public wms::ExecutionService {
 public:
  TimedService(wms::ExecutionService& inner, Tracer::Bucket& bucket)
      : inner_(inner), bucket_(bucket) {}

  void submit(const wms::ConcreteJob& job) override {
    const auto start = Clock::now();
    inner_.submit(job);
    charge(start);
  }
  std::vector<wms::TaskAttempt> wait() override {
    const auto start = Clock::now();
    auto out = inner_.wait();
    charge(start);
    return out;
  }
  std::vector<wms::TaskAttempt> wait_for(double timeout_seconds) override {
    const auto start = Clock::now();
    auto out = inner_.wait_for(timeout_seconds);
    charge(start);
    return out;
  }
  std::vector<wms::TaskAttempt> poll() override {
    const auto start = Clock::now();
    auto out = inner_.poll();
    charge(start);
    return out;
  }
  double next_event_time() override { return inner_.next_event_time(); }
  void avoid_node(const std::string& node) override { inner_.avoid_node(node); }
  double now() override { return inner_.now(); }
  [[nodiscard]] std::string label() const override { return inner_.label(); }

 private:
  void charge(Clock::time_point start) {
    ++bucket_.count;
    bucket_.busy_seconds += seconds_since(start);
  }
  wms::ExecutionService& inner_;
  Tracer::Bucket& bucket_;
};

struct CountingObserver final : wms::EngineObserver {
  std::size_t events = 0;
  void on_event(const wms::EngineEvent&) override { ++events; }
};

workload::ShapeSpec dag_spec(std::uint64_t seed) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kBlast2cap3;
  spec.size = kDagWorkers;
  spec.seed = common::mix64(seed);
  spec.edge_patterns = true;
  return spec;
}

/// The per-pass program objects; constructing them is the set-up.
struct Stack {
  Stack(std::uint64_t seed, wms::EngineObserver* observer)
      : campus(queue, campus_config(seed)), service(queue, campus),
        engine(engine_options(observer)) {}

  static sim::CampusClusterConfig campus_config(std::uint64_t seed) {
    sim::CampusClusterConfig config;
    config.allocated_slots = kSandhillsSlots;
    config.seed = common::mix64(seed ^ 0x5a17d5ULL);
    return config;
  }
  static wms::EngineOptions engine_options(wms::EngineObserver* observer) {
    wms::EngineOptions options;
    options.lean_report = true;
    if (observer) options.observers.push_back(observer);
    return options;
  }

  sim::EventQueue queue;
  sim::CampusClusterPlatform campus;
  wms::SimService service;
  wms::DagmanEngine engine;
};

struct Pass {
  double work_s = 0;
  wms::RunReport report;
  std::size_t jobs = 0;
  workload::StreamedBuildStats build;
  // Traced passes only.
  std::size_t engine_events = 0;
  std::uint64_t queue_events = 0;
  Tracer::Id root = Tracer::kNone;
  Tracer::Id build_span = Tracer::kNone;
  const Tracer::Bucket* service = nullptr;
};

Pass run_pass(const RunConfig& config, const workload::ShapeSpec& spec, Tracer* tracer,
              std::uint64_t pass_index) {
  Pass pass;
  CountingObserver counter;
  Stack stack(config.seed, tracer ? &counter : nullptr);

  workload::StreamedBuildOptions build_options;
  build_options.site = "sandhills";
  // Declared outside the root span: tearing the DAG down is not program work.
  std::optional<wms::ConcreteWorkflow> workflow;
  {
    const Scope root(tracer, "bench.pass", pass_index);
    pass.root = root.id();
    const auto start = Clock::now();
    {
      const Scope span(tracer, "workload.streamed_build", pass_index);
      pass.build_span = span.id();
      workflow.emplace(workload::build_concrete_streamed(spec, build_options, &pass.build));
    }
    pass.jobs = workflow->jobs().size();
    {
      const Scope span(tracer, "wms.engine_run", pass_index);
      if (tracer) {
        Tracer::Bucket& bucket = tracer->bucket("sim.service");
        pass.service = &bucket;
        TimedService timed(stack.service, bucket);
        pass.report = stack.engine.run(*workflow, timed);
      } else {
        pass.report = stack.engine.run(*workflow, stack.service);
      }
    }
    pass.work_s = seconds_since(start);
  }
  pass.engine_events = counter.events;
  pass.queue_events = stack.queue.processed();
  return pass;
}

}  // namespace

WorkloadReport run_dag_large(const RunConfig& config, Tracer& tracer) {
  const workload::ShapeSpec spec = dag_spec(config.seed);
  // Closed-form jobs plus the planner's stage-in/stage-out pair.
  const std::size_t expected_jobs = workload::closed_form_counts(spec).jobs + 2;

  WorkloadReport report;
  const bool rss_reset = reset_peak_rss();

  const auto make_stack = [&] { return std::make_unique<Stack>(config.seed, nullptr); };

  std::vector<double> untraced_rate;  // per untraced round: sum of replica rates
  std::vector<double> untraced_wall;  // replica 0's untraced pass walls
  std::vector<Pass> traced;           // replica 0's traced passes
  wms::RunReport first;
  bool have_first = false;
  bool digests_equal = true;
  std::size_t bad_runs = 0;

  const auto window = Clock::now();
  double last_pass_s = 0;
  for (std::size_t done = 0; more_passes(config, done, window, last_pass_s); ++done) {
    const bool is_traced = traced_pass(config, done);
    report.setup_seconds.push_back(sample_setup(config.workers, make_stack, kSetupBatch));
    std::vector<Pass> round(config.workers);
    run_replicas(config.workers, [&](std::size_t r) {
      round[r] = run_pass(config, spec, r == 0 && is_traced ? &tracer : nullptr, done);
    });
    double rate = 0;
    last_pass_s = 0;
    for (const Pass& pass : round) {
      const bool ok = pass.report.success && pass.jobs == expected_jobs &&
                      pass.report.jobs_succeeded == expected_jobs &&
                      pass.report.jobs_failed == 0;
      ++report.attempted;
      if (!ok) {
        ++report.failed;
        ++bad_runs;
      }
      if (!have_first) {
        first = pass.report;
        have_first = true;
      } else if (pass.report.jobstate_digest != first.jobstate_digest ||
                 pass.report.jobstate_lines != first.jobstate_lines) {
        digests_equal = false;
      }
      rate += static_cast<double>(expected_jobs) / pass.work_s;
      last_pass_s = std::max(last_pass_s, pass.work_s);
      if (!is_traced) report.pass_seconds.push_back(pass.work_s);
    }
    if (is_traced) {
      traced.push_back(std::move(round[0]));
    } else {
      untraced_rate.push_back(rate);
      untraced_wall.push_back(round[0].work_s);
    }
    ++report.passes;
  }

  report.check("every DAG run completes with closed-form + 2 jobs succeeded",
               bad_runs == 0, std::to_string(bad_runs) + " bad runs");
  report.check("jobstate digest identical across passes and replicas (traced or not)",
               digests_equal);
  report.check("peak RSS reset before the workload", rss_reset);
  report.digest = first.jobstate_digest;

  const double jobs_per_s = summarize(untraced_rate).median();
  report.end_to_end = {{"work_per_s", jobs_per_s, "1/s"},
                       {"setup_s", summarize(report.setup_seconds).median(), "s"},
                       {"peak_rss_mb", peak_rss_mb(), "MB"}};
  report.result("jobs_per_s", jobs_per_s, "1/s");
  report.result("jobs_per_pass", static_cast<double>(expected_jobs), "count");
  report.result("replicas", static_cast<double>(config.workers), "count");
  report.result("fail_ratio",
                static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                "ratio");
  report.result("sim_makespan_s", first.wall_seconds(), "s");

  if (!config.trace) return report;

  std::sort(traced.begin(), traced.end(),
            [](const Pass& a, const Pass& b) { return a.work_s < b.work_s; });
  std::vector<double> traced_wall;
  for (const Pass& p : traced) traced_wall.push_back(p.work_s);
  const Pass& pass = traced[(traced.size() - 1) / 2];

  const Tracer::Accounting accounting = tracer.account(pass.root);
  report.layer("workload.streamed_build_s", tracer.duration(pass.build_span), "s");
  report.layer("workload.streamed_build.model_s", pass.build.model_seconds, "s");
  report.layer("workload.streamed_build.fill_s", pass.build.fill_seconds, "s");
  report.layer("workload.streamed_build.intern_s", pass.build.intern_seconds, "s");
  report.layer("workload.streamed_build.wire_s", pass.build.wire_seconds, "s");
  report.layer("wms.engine_s", accounting.of("wms"), "s");
  report.layer("wms.engine_events", static_cast<double>(pass.engine_events), "count");
  report.layer("sim.service_calls", static_cast<double>(pass.service->count), "count");
  report.layer("sim.service_s", pass.service->busy_seconds, "s");
  report.layer("sim.queue_events", static_cast<double>(pass.queue_events), "count");
  add_trace_metrics(report, accounting.wall, accounting.of("other"), accounting.adds_up,
                    traced_wall, untraced_wall);
  return report;
}

}  // namespace pga::perfbench
