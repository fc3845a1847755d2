// fleet-backlog: the WaaS FleetController driving a Poisson stream of
// generated workflows across both simulated platforms on one clock.
//
// A pass constructs a fresh EventQueue + FleetController (the set-up) and
// runs the seed's request stream to completion (the timed work). The
// controller is single-threaded, so a round runs one replica pass per
// worker thread at once, all on the same stream; throughput is the sum of
// the replicas' rates. That keeps every core busy, and a core that runs
// slow for a while weighs a quarter (on four workers) instead of all.
// Replica 0 runs on the calling thread and is the only one traced: traced
// passes subscribe a storage-event counter and afterwards replay the
// admission's public build_workflow + plan calls on the same requests, so
// the fleet's wall splits into build, plan and the rest of run().
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "data/storage_events.hpp"
#include "sim/event_queue.hpp"
#include "waas/fleet.hpp"
#include "wms/planner.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

namespace pga::perfbench {
namespace {

constexpr std::size_t kTenants = 4;
const std::vector<double> kWeights{4.0, 2.0, 1.0, 1.0};

// fleet-backlog: Poisson arrivals cycling all six shapes, arriving faster
// than the capped fleet drains them.
constexpr std::size_t kBacklogWorkflows = 1000;
constexpr std::size_t kBacklogShapeSize = 24;
constexpr double kBacklogMeanInterarrival = 20.0;  // simulated seconds
constexpr std::size_t kBacklogJobCap = 256;
constexpr std::size_t kBacklogLiveWorkflows = 200;

// Controller constructions timed per set-up sample and thread (one takes
// about a microsecond).
constexpr std::size_t kSetupBatch = 200;

struct FleetInput {
  std::vector<workload::WorkflowRequest> requests;
  waas::FleetOptions options;
  std::vector<std::size_t> expected_jobs;  ///< by request index
};

FleetInput backlog_input(std::uint64_t seed) {
  FleetInput input;
  workload::ArrivalParams params;
  params.process = workload::ArrivalProcess::kPoisson;
  params.count = kBacklogWorkflows;
  params.mean_interarrival_seconds = kBacklogMeanInterarrival;
  params.seed = common::mix64(seed);
  params.tenants = kTenants;
  params.shapes.clear();
  for (const workload::Shape shape : workload::all_shapes()) {
    workload::ShapeSpec spec;
    spec.shape = shape;
    spec.size = kBacklogShapeSize;
    params.shapes.push_back(spec);
  }
  input.requests = workload::generate_arrivals(params);
  input.options.seed = common::mix64(seed);
  input.options.tenants = kTenants;
  input.options.tenant_weights = kWeights;
  input.options.dual_platform = true;
  input.options.engine.retries = 10;  // OSG preemptions and chaos need headroom
  input.options.max_jobs_in_flight = kBacklogJobCap;
  input.options.max_active_workflows = kBacklogLiveWorkflows;
  input.options.model_staging = true;
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.05;
  chaos.delay_probability = 0.05;
  chaos.max_delay_seconds = 120;
  input.options.chaos = chaos;
  return input;
}

struct StorageCounter final : data::StorageObserver {
  std::size_t events = 0;
  std::uint64_t bytes_created = 0;
  void on_storage_event(const data::StorageEvent& event) override {
    ++events;
    if (event.type == data::StorageEventType::kFileCreated) bytes_created += event.bytes;
  }
};

/// The split of one traced pass.
struct TracedSplit {
  double run_s = 0;
  double build_s = 0;
  double plan_s = 0;
  std::size_t replayed = 0;  ///< admissions replayed: one build + one plan each
  std::size_t storage_events = 0;
  std::uint64_t bytes_created = 0;
};

/// The set-up: a fleet timeline and its controller.
struct Fleet {
  explicit Fleet(const waas::FleetOptions& options) : controller(queue, options) {}
  sim::EventQueue queue;
  waas::FleetController controller;
};

struct Pass {
  waas::FleetResult result;
  double run_s = 0;
  TracedSplit split;
};

/// Replays what admit() builds for every finished workflow: the abstract
/// workflow, then the catalogs + plan for the site it was placed on.
void replay_admission(const FleetInput& input, const waas::FleetResult& result,
                      Tracer& tracer, TracedSplit& split) {
  for (const waas::WorkflowOutcome& outcome : result.outcomes) {
    const workload::ShapeSpec& spec = input.requests[outcome.index].spec;
    const Tracer::Id build_id = tracer.begin("workload.build_workflow", outcome.index);
    const wms::AbstractWorkflow abstract = workload::build_workflow(spec);
    tracer.end(build_id);
    const Tracer::Id plan_id = tracer.begin("wms.plan", outcome.index);
    wms::PlannerOptions planner_options;
    planner_options.target_site = outcome.platform;
    planner_options.expected_output_bytes = workload::expected_output_bytes(spec);
    const wms::ReplicaCatalog replicas =
        workload::generator_replica_catalog(abstract, spec);
    const wms::ConcreteWorkflow concrete =
        wms::plan(abstract, workload::generator_site_catalog(),
                  workload::generator_transformation_catalog(abstract), replicas,
                  planner_options);
    tracer.end(plan_id);
    split.build_s += tracer.duration(build_id);
    split.plan_s += tracer.duration(plan_id);
    ++split.replayed;
  }
}

Pass run_pass(const FleetInput& input, Tracer* tracer, std::uint64_t pass_index) {
  Pass pass;
  Fleet fleet(input.options);
  waas::FleetController& controller = fleet.controller;
  StorageCounter storage;
  if (tracer && controller.storage_bus()) controller.storage_bus()->subscribe(&storage);
  {
    const Scope span(tracer, "waas.run", pass_index);
    const auto start = Clock::now();
    pass.result = controller.run(input.requests);
    pass.run_s = seconds_since(start);
  }
  if (tracer) {
    pass.split.run_s = pass.run_s;
    pass.split.storage_events = storage.events;
    pass.split.bytes_created = storage.bytes_created;
    replay_admission(input, pass.result, *tracer, pass.split);
  }
  return pass;
}

/// One round: `replicas` passes over the same input at once, one per
/// thread. Replica 0 runs on the calling thread with `tracer`.
std::vector<Pass> run_round(const FleetInput& input, std::size_t replicas, Tracer* tracer,
                            std::uint64_t pass_index) {
  std::vector<Pass> passes(replicas);
  run_replicas(replicas, [&](std::size_t r) {
    passes[r] = run_pass(input, r == 0 ? tracer : nullptr, pass_index);
  });
  return passes;
}

}  // namespace

WorkloadReport run_fleet_backlog(const RunConfig& config, Tracer& tracer) {
  FleetInput input = backlog_input(config.seed);
  input.expected_jobs.resize(input.requests.size());
  std::size_t expected_total = 0;
  for (const auto& request : input.requests) {
    // Closed-form jobs plus the planner's stage-in/stage-out pair.
    input.expected_jobs[request.index] = workload::closed_form_counts(request.spec).jobs + 2;
    expected_total += input.expected_jobs[request.index];
  }

  WorkloadReport report;
  const bool rss_reset = reset_peak_rss();

  const auto make_fleet = [&] { return std::make_unique<Fleet>(input.options); };

  std::vector<double> untraced_rate;  // per untraced round: sum of replica rates
  std::vector<double> untraced_run;   // replica 0's untraced run() walls
  std::vector<TracedSplit> splits;    // replica 0's traced passes
  waas::FleetResult first;
  bool have_first = false;
  bool digests_equal = true;
  bool counts_ok = true;
  std::size_t bad_workflows = 0;

  const auto window = Clock::now();
  double last_pass_s = 0;
  for (std::size_t done = 0; more_passes(config, done, window, last_pass_s); ++done) {
    const bool traced = traced_pass(config, done);
    report.setup_seconds.push_back(sample_setup(config.workers, make_fleet, kSetupBatch));
    const std::vector<Pass> round =
        run_round(input, config.workers, traced ? &tracer : nullptr, done);
    double rate = 0;
    last_pass_s = 0;
    for (const Pass& pass : round) {
      const waas::FleetResult& result = pass.result;
      std::size_t jobs = 0;
      std::size_t bad = input.requests.size() - std::min(input.requests.size(),
                                                         result.outcomes.size());
      for (const waas::WorkflowOutcome& outcome : result.outcomes) {
        jobs += outcome.jobs;
        if (!outcome.success || outcome.jobs != input.expected_jobs[outcome.index]) ++bad;
      }
      counts_ok = counts_ok && jobs == expected_total &&
                  result.workflows_completed == input.requests.size();
      report.attempted += input.requests.size();
      report.failed += bad;
      bad_workflows += bad;
      if (!have_first) {
        first = result;
        have_first = true;
      } else if (result.digest != first.digest ||
                 result.events_processed != first.events_processed) {
        digests_equal = false;
      }
      rate += static_cast<double>(expected_total) / pass.run_s;
      last_pass_s = std::max(last_pass_s, pass.run_s);
      if (!traced) report.pass_seconds.push_back(pass.run_s);
    }
    if (traced) {
      splits.push_back(round[0].split);
    } else {
      untraced_rate.push_back(rate);
      untraced_run.push_back(round[0].run_s);
    }
    ++report.passes;
  }

  report.check("every request completes and succeeds", bad_workflows == 0,
               std::to_string(bad_workflows) + " bad workflow runs");
  report.check("job counts equal closed form + 2 stage jobs", counts_ok,
               "expected " + std::to_string(expected_total) + " jobs per pass");
  report.check("fleet digest identical across passes and replicas", digests_equal);
  report.check("peak RSS reset before the workload", rss_reset);
  report.digest = first.digest;

  // Simulated results: deterministic per seed, taken from the first pass.
  std::vector<double> makespans;
  std::vector<double> admit_waits;
  std::size_t retries = 0;
  for (const waas::WorkflowOutcome& outcome : first.outcomes) {
    makespans.push_back(outcome.makespan_seconds);
    admit_waits.push_back(outcome.admitted_seconds - outcome.arrival_seconds);
    retries += outcome.retries;
  }
  const Tail makespan_tail = supported_tail(makespans);
  const Tail wait_tail = supported_tail(admit_waits);
  const double jobs_per_s = summarize(untraced_rate).median();

  report.end_to_end = {{"work_per_s", jobs_per_s, "1/s"},
                       {"setup_s", summarize(report.setup_seconds).median(), "s"},
                       {"peak_rss_mb", peak_rss_mb(), "MB"}};
  report.result("jobs_per_s", jobs_per_s, "1/s");
  report.result("workflows", static_cast<double>(input.requests.size()), "count");
  report.result("jobs_per_pass", static_cast<double>(expected_total), "count");
  report.result("replicas", static_cast<double>(config.workers), "count");
  report.result("fail_ratio",
                static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                "ratio");
  report.result("sim_makespan_p50_s", summarize(makespans).median(), "s");
  report.result("sim_makespan_" + percentile_label(makespan_tail.percentile) + "_s",
                makespan_tail.value, "s");
  report.result("sim_makespan_samples", static_cast<double>(makespan_tail.samples), "count");
  report.result("sim_finished_s", first.finished_at_seconds, "s");

  if (!config.trace) return report;

  // Per-layer metrics from the traced pass with the median run() wall.
  std::sort(splits.begin(), splits.end(),
            [](const TracedSplit& a, const TracedSplit& b) { return a.run_s < b.run_s; });
  const TracedSplit& split = splits[(splits.size() - 1) / 2];
  std::vector<double> traced_run;
  for (const TracedSplit& s : splits) traced_run.push_back(s.run_s);
  // The replayed admission must fit inside run(); the rest is waas's own.
  const double other_s = split.run_s - split.build_s - split.plan_s;

  report.layer("workload.build_calls", static_cast<double>(split.replayed), "count");
  report.layer("workload.build_s", split.build_s, "s");
  report.layer("wms.plan_calls", static_cast<double>(split.replayed), "count");
  report.layer("wms.plan_s", split.plan_s, "s");
  report.layer("waas.run_s", split.run_s, "s");
  report.layer("waas.other_s", other_s, "s");
  report.layer("waas.queue_events", static_cast<double>(first.events_processed), "count");
  report.layer("waas.engine_events", static_cast<double>(first.engine_events), "count");
  report.layer("waas.peak_jobs_in_flight", static_cast<double>(first.peak_jobs_in_flight),
               "count");
  report.layer("waas.retries", static_cast<double>(retries), "count");
  report.layer("waas.attempt_yield",
               static_cast<double>(expected_total) /
                   static_cast<double>(expected_total + retries),
               "ratio");
  report.layer("waas.admit_wait_p50_s", summarize(admit_waits).median(), "s");
  report.layer("waas.admit_wait_p99_s", wait_tail.value, "s");
  report.layer("waas.admit_wait_tail_pct", wait_tail.percentile, "pct");
  report.layer("waas.workflows", static_cast<double>(first.outcomes.size()), "count");
  report.layer("data.storage_events", static_cast<double>(split.storage_events), "count");
  report.layer("data.bytes_created", static_cast<double>(split.bytes_created), "B");
  add_trace_metrics(report, split.run_s, other_s, other_s >= 0, traced_run, untraced_run);
  return report;
}

}  // namespace pga::perfbench
