// Fleet-controller suite: multi-tenant WaaS over one shared clock.
// Covers completion/accounting invariants, weighted fair share (equal
// weights finish together; 3:1 weights yield ~3:1 throughput), cap
// enforcement, dual-platform placement, staging composition, chaos,
// double-run byte identity and literal pinned values of the fleet digest,
// and a reaped workflow's written-off attempt completing after teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"
#include "waas/fleet.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"

namespace pga::waas {
namespace {

workload::ShapeSpec spec_of(workload::Shape shape, std::size_t size,
                            std::uint64_t seed) {
  workload::ShapeSpec spec;
  spec.shape = shape;
  spec.size = size;
  spec.seed = seed;
  return spec;
}

/// `count` requests, all arriving at t=0, striped over `tenants`.
std::vector<workload::WorkflowRequest> burst_requests(
    std::size_t count, std::size_t tenants, const workload::ShapeSpec& spec) {
  std::vector<workload::WorkflowRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    workload::WorkflowRequest request;
    request.index = i;
    request.arrival_seconds = 0;
    request.tenant = i % tenants;
    request.spec = spec;
    request.spec.seed = spec.seed + i;  // distinct cost streams
    requests.push_back(request);
  }
  return requests;
}

FleetResult run_fleet(const FleetOptions& options,
                      const std::vector<workload::WorkflowRequest>& requests) {
  sim::EventQueue queue;
  FleetController controller(queue, options);
  return controller.run(requests);
}

TEST(FleetController, RunsAnArrivalStreamToCompletionOnBothPlatforms) {
  workload::ArrivalParams params;
  params.count = 12;
  params.tenants = 2;
  params.mean_interarrival_seconds = 120;
  params.shapes = {spec_of(workload::Shape::kBlast2cap3, 4, 5)};
  const auto requests = workload::generate_arrivals(params);

  FleetOptions options;
  options.tenants = 2;
  const FleetResult result = run_fleet(options, requests);

  EXPECT_EQ(result.workflows_completed, 12u);
  EXPECT_EQ(result.workflows_succeeded, 12u);
  EXPECT_EQ(result.outcomes.size(), 12u);
  // blast2cap3 closed form n+6 compute jobs plus the planner's stage pair.
  const std::size_t expected_jobs =
      workload::closed_form_counts(params.shapes[0]).jobs + 2;
  std::size_t on_campus = 0;
  std::size_t on_osg = 0;
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.success);
    EXPECT_EQ(outcome.jobs, expected_jobs);
    EXPECT_GE(outcome.makespan_seconds, 0.0);
    EXPECT_GE(outcome.admitted_seconds, outcome.arrival_seconds - 1e-9);
    (outcome.platform == "sandhills" ? on_campus : on_osg) += 1;
  }
  // Load balancing must actually use both platforms for a 12-wide burst.
  EXPECT_GT(on_campus, 0u);
  EXPECT_GT(on_osg, 0u);
  EXPECT_GT(result.peak_jobs_in_flight, 0u);
  EXPECT_GT(result.events_processed, 0u);
  const std::size_t tenant_total = result.tenants[0].workflows_completed +
                                   result.tenants[1].workflows_completed;
  EXPECT_EQ(tenant_total, 12u);
}

TEST(FleetController, DoubleRunIsByteIdentical) {
  workload::ArrivalParams params;
  params.count = 8;
  params.tenants = 2;
  params.process = workload::ArrivalProcess::kBursty;
  params.burst_size = 4;
  params.shapes = {spec_of(workload::Shape::kDiamond, 5, 9)};
  const auto requests = workload::generate_arrivals(params);

  FleetOptions options;
  options.tenants = 2;
  options.max_jobs_in_flight = 24;
  const FleetResult first = run_fleet(options, requests);
  const FleetResult second = run_fleet(options, requests);

  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.peak_jobs_in_flight, second.peak_jobs_in_flight);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].index, second.outcomes[i].index);
    EXPECT_EQ(first.outcomes[i].platform, second.outcomes[i].platform);
    EXPECT_DOUBLE_EQ(first.outcomes[i].finished_seconds,
                     second.outcomes[i].finished_seconds);
    EXPECT_EQ(first.outcomes[i].digest, second.outcomes[i].digest);
  }
}

TEST(FleetController, DoubleRunIsByteIdenticalUnderChaosAndStaging) {
  const auto requests =
      burst_requests(6, 2, spec_of(workload::Shape::kFan, 6, 13));

  FleetOptions options;
  options.tenants = 2;
  options.model_staging = true;
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.1;
  chaos.delay_probability = 0.1;
  chaos.max_delay_seconds = 200;
  options.chaos = chaos;
  options.engine.retries = 20;

  const FleetResult first = run_fleet(options, requests);
  const FleetResult second = run_fleet(options, requests);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.workflows_completed, 6u);
  EXPECT_EQ(first.workflows_succeeded, second.workflows_succeeded);
}

TEST(FleetController, EqualWeightsFinishTogether) {
  // Two tenants, identical burst of work, equal weights: their last
  // completions must land close together (neither tenant starves).
  const auto requests =
      burst_requests(16, 2, spec_of(workload::Shape::kFan, 8, 17));

  FleetOptions options;
  options.tenants = 2;
  options.dual_platform = false;  // one platform: capacity perfectly shared
  options.max_jobs_in_flight = 12;
  const FleetResult result = run_fleet(options, requests);
  ASSERT_EQ(result.workflows_completed, 16u);

  double last[2] = {0, 0};
  for (const auto& outcome : result.outcomes) {
    last[outcome.tenant] = std::max(last[outcome.tenant], outcome.finished_seconds);
  }
  const double spread = std::abs(last[0] - last[1]);
  const double horizon = std::max(last[0], last[1]);
  EXPECT_LT(spread, 0.25 * horizon)
      << "tenant finish times " << last[0] << " vs " << last[1];
}

TEST(FleetController, WeightedTenantsGetProportionalThroughput) {
  // 3:1 weights on identical workloads and a binding jobs-in-flight cap:
  // the heavy tenant runs ~3x the job throughput, so it drains its half of
  // the burst well before the light tenant drains its own (whose tail only
  // accelerates once the heavy tenant's work is gone).
  const auto requests =
      burst_requests(24, 2, spec_of(workload::Shape::kFan, 8, 19));

  FleetOptions options;
  options.tenants = 2;
  options.tenant_weights = {3.0, 1.0};
  options.dual_platform = false;
  options.max_jobs_in_flight = 12;
  const FleetResult result = run_fleet(options, requests);
  ASSERT_EQ(result.workflows_completed, 24u);
  EXPECT_LE(result.peak_jobs_in_flight, 12u);  // the cap is a hard cap

  double last[2] = {0, 0};
  for (const auto& outcome : result.outcomes) {
    last[outcome.tenant] = std::max(last[outcome.tenant], outcome.finished_seconds);
  }
  EXPECT_LT(last[0], 0.8 * last[1])
      << "heavy tenant finished at " << last[0] << ", light at " << last[1];
  // While the heavy tenant was still running, the light tenant should have
  // completed well under half of its own workflows.
  std::size_t light_before_heavy_done = 0;
  for (const auto& outcome : result.outcomes) {
    if (outcome.tenant == 1 && outcome.finished_seconds <= last[0]) {
      ++light_before_heavy_done;
    }
  }
  EXPECT_LE(light_before_heavy_done, 8u);
}

TEST(FleetController, CapIsEnforcedAtPeak) {
  const auto requests =
      burst_requests(10, 1, spec_of(workload::Shape::kFan, 12, 23));
  FleetOptions options;
  options.tenants = 1;
  options.max_jobs_in_flight = 8;
  const FleetResult result = run_fleet(options, requests);
  EXPECT_EQ(result.workflows_completed, 10u);
  EXPECT_LE(result.peak_jobs_in_flight, 8u);
}

TEST(FleetController, ValidatesInputs) {
  sim::EventQueue queue;
  {
    FleetOptions options;
    options.tenants = 2;
    options.tenant_weights = {1.0};  // wrong arity
    EXPECT_THROW(FleetController(queue, options), common::InvalidArgument);
  }
  {
    FleetOptions options;
    options.tenants = 1;
    options.tenant_weights = {0.0};  // non-positive weight
    EXPECT_THROW(FleetController(queue, options), common::InvalidArgument);
  }
  {
    FleetOptions options;
    options.tenants = 1;
    FleetController controller(queue, options);
    auto requests = burst_requests(2, 1, spec_of(workload::Shape::kChain, 2, 3));
    requests[1].tenant = 5;  // out of range
    EXPECT_THROW(controller.run(requests), common::InvalidArgument);
  }
  {
    sim::EventQueue fresh;
    FleetOptions options;
    options.tenants = 1;
    FleetController controller(fresh, options);
    auto requests = burst_requests(2, 1, spec_of(workload::Shape::kChain, 2, 3));
    requests[0].arrival_seconds = 10;  // unsorted
    EXPECT_THROW(controller.run(requests), common::InvalidArgument);
  }
  {
    sim::EventQueue fresh;
    FleetOptions options;
    options.tenants = 1;
    FleetController controller(fresh, options);
    const auto requests =
        burst_requests(1, 1, spec_of(workload::Shape::kChain, 2, 3));
    EXPECT_EQ(controller.run(requests).workflows_completed, 1u);
    EXPECT_THROW(controller.run(requests), common::InvalidArgument);  // reuse
  }
}

TEST(FleetController, EmptyRequestStreamIsANoop) {
  sim::EventQueue queue;
  FleetOptions options;
  options.tenants = 1;
  FleetController controller(queue, options);
  const FleetResult result = controller.run({});
  EXPECT_EQ(result.workflows_completed, 0u);
  EXPECT_EQ(result.outcomes.size(), 0u);
  EXPECT_EQ(result.p50_makespan_seconds, 0.0);
  EXPECT_FALSE(result.render().empty());
}

/// A Poisson stream of ~120 workflows over all six shapes, three weighted
/// tenants, a job cap and a workflow cap, with staging and chaos
/// fail/delay/corrupt plus jittered retry backoff. `hangs` adds chaos hangs
/// and an attempt timeout; `blacklist` adds node blacklisting on top.
struct PinnedFleet {
  FleetOptions options;
  std::vector<workload::WorkflowRequest> requests;
};

PinnedFleet pinned_fleet(bool hangs, bool blacklist) {
  workload::ArrivalParams params;
  params.count = 120;
  params.tenants = 3;
  params.mean_interarrival_seconds = 30;
  params.seed = 2024;
  params.shapes.clear();
  for (const workload::Shape shape : workload::all_shapes()) {
    params.shapes.push_back(spec_of(shape, 6, 11));
  }

  PinnedFleet fleet;
  fleet.requests = workload::generate_arrivals(params);
  FleetOptions& options = fleet.options;
  options.seed = 77;
  options.tenants = 3;
  options.tenant_weights = {3.0, 2.0, 1.0};
  options.max_jobs_in_flight = 48;
  options.max_active_workflows = 16;
  options.model_staging = true;
  options.engine.retries = 10;
  options.engine.backoff_base_seconds = 30;
  options.engine.backoff_jitter = 0.5;
  wms::ChaosConfig chaos;
  chaos.fail_probability = 0.08;
  chaos.delay_probability = 0.08;
  chaos.corrupt_probability = 0.05;
  chaos.max_delay_seconds = 150;
  if (hangs) {
    chaos.hang_probability = 0.03;
    // Long enough that no timed-out attempt is still running when its
    // workflow is reaped (that path has its own test below).
    options.engine.attempt_timeout_seconds = 50'000;
  }
  if (blacklist) options.engine.node_blacklist_threshold = 2;
  options.chaos = chaos;
  return fleet;
}

// The fleet digest pins the whole interleaving: any change to which engine
// steps when, or to what a step consumes, moves it. The literals are those
// of a round that steps every live engine, so skipping engines that cannot
// progress must leave them as they are. Backoff, attempt timeouts and
// blacklisting each add a wake source the benchmark's fleet workload never
// exercises.
TEST(FleetController, PinnedDigestWithStagingChaosAndBackoff) {
  const PinnedFleet fleet = pinned_fleet(false, false);
  const FleetResult result = run_fleet(fleet.options, fleet.requests);
  EXPECT_EQ(result.workflows_completed, 120u);
  EXPECT_EQ(result.digest, 0xfda7b44847f56aacULL);
  EXPECT_EQ(result.events_processed, 3213u);
}

TEST(FleetController, PinnedDigestWithHangsAndAttemptTimeouts) {
  const PinnedFleet fleet = pinned_fleet(true, false);
  const FleetResult result = run_fleet(fleet.options, fleet.requests);
  EXPECT_EQ(result.workflows_completed, 120u);
  EXPECT_EQ(result.digest, 0x7dddddabd362ee4eULL);
  EXPECT_EQ(result.events_processed, 3296u);
}

TEST(FleetController, PinnedDigestWithNodeBlacklisting) {
  const PinnedFleet fleet = pinned_fleet(true, true);
  const FleetResult result = run_fleet(fleet.options, fleet.requests);
  EXPECT_EQ(result.workflows_completed, 120u);
  EXPECT_EQ(result.digest, 0x89a2f88c3050f3d5ULL);
  EXPECT_EQ(result.events_processed, 3296u);
}

// Two identical fans on one campus platform with a fixed dispatch latency
// and node speed finish their jobs at the same instants. With pump_batch 1
// a quiet round runs only workflow 0's completion, so workflow 1's, due at
// the same instant, is still queued when the next round starts. Workflow 1
// must step in that round even though its inbox is empty: if it waited,
// workflow 0's work-conserving step would run the event inside its own
// poll, workflow 1 would see the completion a round late, and the budget
// split under the job cap would change. The literals are those of a round
// that steps every live engine.
TEST(FleetController, PinnedDigestWithCompletionsAtOneInstant) {
  auto requests = burst_requests(2, 1, spec_of(workload::Shape::kFan, 3, 5));
  for (auto& request : requests) request.spec.seed = 5;  // identical costs
  FleetOptions options;
  options.tenants = 1;
  options.dual_platform = false;
  options.pump_batch = 1;
  options.max_jobs_in_flight = 4;
  options.campus.dispatch_mu = 0;
  options.campus.dispatch_sigma = 0;
  options.campus.node_speed_min = 1.0;
  options.campus.node_speed_max = 1.0;
  const FleetResult result = run_fleet(options, requests);
  EXPECT_EQ(result.workflows_succeeded, 2u);
  EXPECT_EQ(result.digest, 0xf9313f0a36e58b96ULL);
  EXPECT_EQ(result.events_processed, 14u);
}

TEST(FleetController, ReapedWorkflowsTimedOutAttemptFinishingLaterIsDropped) {
  // Workflow 0's first attempt outlives its 1 s timeout; with no retries
  // the workflow fails and is reaped while that attempt still runs on the
  // shared platform. Its completion lands long before workflow 1 arrives
  // and must not touch the destroyed service stack.
  for (const bool staging : {false, true}) {
    SCOPED_TRACE(staging ? "staging" : "flat stage jobs");
    auto requests = burst_requests(2, 1, spec_of(workload::Shape::kChain, 3, 31));
    requests[1].arrival_seconds = 1e6;
    FleetOptions options;
    options.tenants = 1;
    options.dual_platform = false;
    options.model_staging = staging;
    options.engine.retries = 0;
    options.engine.attempt_timeout_seconds = 1;
    const FleetResult result = run_fleet(options, requests);
    ASSERT_EQ(result.outcomes.size(), 2u);
    EXPECT_EQ(result.workflows_completed, 2u);
    EXPECT_EQ(result.outcomes[0].index, 0u);
    EXPECT_FALSE(result.outcomes[0].success);
    EXPECT_EQ(result.outcomes[1].index, 1u);
  }
}

TEST(FleetController, RendersASummary)
{
  const auto requests =
      burst_requests(3, 1, spec_of(workload::Shape::kChain, 3, 29));
  FleetOptions options;
  options.tenants = 1;
  const FleetResult result = run_fleet(options, requests);
  const std::string text = result.render();
  EXPECT_NE(text.find("3 workflows"), std::string::npos);
  EXPECT_NE(text.find("tenant 0"), std::string::npos);
}

}  // namespace
}  // namespace pga::waas
