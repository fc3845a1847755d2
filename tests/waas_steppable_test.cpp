// Steppable-engine contract: EngineInstance must (a) reproduce
// DagmanEngine::run() byte-for-byte when driven with step(), (b) let two
// engines interleave on one shared EventQueue without perturbing either
// run, and (c) expose the non-blocking cooperative face (step_cooperative,
// poll, next_deadline, has_output) the WaaS fleet controller is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/staging_service.hpp"
#include "data/transfer_manager.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/osg.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "workload/generator.hpp"
#include "wms_test_dags.hpp"

namespace pga::wms {
namespace {

workload::ShapeSpec small_spec(workload::Shape shape, std::size_t size,
                               std::uint64_t seed) {
  workload::ShapeSpec spec;
  spec.shape = shape;
  spec.size = size;
  spec.seed = seed;
  return spec;
}

/// Drives two cooperative engines on one shared queue, pumping ONE event
/// per quiet round so each engine observes its completions at exactly the
/// simulated instant they landed (the solo-run timing).
void drive_pair(sim::EventQueue& queue, EngineInstance& a, EngineInstance& b) {
  for (int guard = 0; guard < 20'000'000; ++guard) {
    bool progress = false;
    if (!a.is_done()) progress |= a.step_cooperative();
    if (!b.is_done()) progress |= b.step_cooperative();
    if (a.is_done() && b.is_done()) return;
    if (progress) continue;
    double fence = std::numeric_limits<double>::infinity();
    if (!a.is_done()) fence = std::min(fence, a.next_deadline());
    if (!b.is_done()) fence = std::min(fence, b.next_deadline());
    const auto next = queue.next_time();
    if (next.has_value() && *next <= fence) {
      queue.step();
      continue;
    }
    ASSERT_FALSE(std::isinf(fence)) << "drive_pair wedged";
    queue.advance_to(fence);
  }
  FAIL() << "drive_pair did not converge";
}

RunReport run_solo_campus(const ConcreteWorkflow& workflow, std::uint64_t seed) {
  sim::EventQueue queue;
  sim::CampusClusterConfig cfg;
  cfg.seed = seed;
  sim::CampusClusterPlatform platform(queue, cfg);
  SimService service(queue, platform);
  DagmanEngine engine({.retries = 3, .rescue_path = {}});
  return engine.run(workflow, service);
}

RunReport run_solo_osg(const ConcreteWorkflow& workflow, std::uint64_t seed) {
  sim::EventQueue queue;
  sim::OsgConfig cfg;
  cfg.seed = seed;
  sim::OsgPlatform platform(queue, cfg);
  SimService service(queue, platform);
  DagmanEngine engine({.retries = 100, .rescue_path = {}});
  return engine.run(workflow, service);
}

TEST(SteppableEngine, ManualSteppingMatchesRunByteForByte) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kBlast2cap3, 8, 7), "sandhills");

  const RunReport via_run = run_solo_campus(workflow, 21);

  sim::EventQueue queue;
  sim::CampusClusterConfig cfg;
  cfg.seed = 21;
  sim::CampusClusterPlatform platform(queue, cfg);
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);
  std::size_t steps = 0;
  while (instance.step()) ++steps;
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(instance.is_done());
  const RunReport via_step = instance.take_report();

  EXPECT_TRUE(via_step.success);
  ASSERT_EQ(via_step.jobstate_log.size(), via_run.jobstate_log.size());
  for (std::size_t i = 0; i < via_run.jobstate_log.size(); ++i) {
    ASSERT_EQ(via_step.jobstate_log[i], via_run.jobstate_log[i])
        << "diverges at line " << i + 1;
  }
}

TEST(SteppableEngine, TwoEnginesOneClockMatchTheirSoloRuns) {
  const auto wf_campus = workload::plan_shape(
      small_spec(workload::Shape::kDiamond, 6, 3), "sandhills");
  const auto wf_osg = workload::plan_shape(
      small_spec(workload::Shape::kFan, 6, 4), "osg");

  const RunReport solo_campus = run_solo_campus(wf_campus, 31);
  const RunReport solo_osg = run_solo_osg(wf_osg, 32);

  // Same platform seeds, but both platforms live on ONE queue and the two
  // engines interleave cooperatively on its clock.
  sim::EventQueue queue;
  sim::CampusClusterConfig campus_cfg;
  campus_cfg.seed = 31;
  sim::CampusClusterPlatform campus(queue, campus_cfg);
  sim::OsgConfig osg_cfg;
  osg_cfg.seed = 32;
  sim::OsgPlatform osg(queue, osg_cfg);
  SimService campus_service(queue, campus);
  SimService osg_service(queue, osg);
  EngineInstance a({.retries = 3, .rescue_path = {}}, wf_campus, campus_service);
  EngineInstance b({.retries = 100, .rescue_path = {}}, wf_osg, osg_service);
  drive_pair(queue, a, b);

  const RunReport report_a = a.take_report();
  const RunReport report_b = b.take_report();
  EXPECT_TRUE(report_a.success);
  EXPECT_TRUE(report_b.success);
  EXPECT_EQ(report_a.jobstate_log, solo_campus.jobstate_log);
  EXPECT_EQ(report_b.jobstate_log, solo_osg.jobstate_log);
}

TEST(SteppableEngine, CooperativeBudgetLimitsSubmissions) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kFan, 10, 5), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);

  // stage_in is the single root: the first cooperative step may submit at
  // most the budget regardless of how much is ready.
  EXPECT_TRUE(instance.step_cooperative(1));
  EXPECT_EQ(instance.jobs_in_flight(), 1u);
  // Ready queue now empty and nothing completed: a quiet step reports so.
  EXPECT_FALSE(instance.step_cooperative(1));
  EXPECT_EQ(instance.jobs_in_flight(), 1u);

  // The budget bounds submissions per call (the fleet turns it into an
  // in-flight cap by granting target-minus-in-flight each round).
  while (!instance.is_done()) {
    const std::size_t before = instance.jobs_in_flight();
    if (!instance.step_cooperative(2)) {
      if (queue.empty()) break;
      queue.step();
      continue;
    }
    EXPECT_LE(instance.jobs_in_flight(), before + 2);
  }
  EXPECT_TRUE(instance.is_done());
  EXPECT_TRUE(instance.take_report().success);
}

TEST(SteppableEngine, ZeroBudgetIsBackPressureNotCompletion) {
  // A fresh engine given no grant has ready work and nothing in flight.
  // That is back-pressure from the driver, not a terminal state: the
  // engine must NOT finalize (regression: it used to report a failed
  // "completed" run the moment a fleet round granted it zero).
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 3, 11), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);

  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(instance.step_cooperative(0));
    EXPECT_FALSE(instance.is_done());
    EXPECT_EQ(instance.jobs_in_flight(), 0u);
  }
  // Once granted, the run proceeds to a clean finish.
  while (!instance.is_done()) {
    if (!instance.step_cooperative(1) && !queue.empty()) queue.step();
  }
  EXPECT_TRUE(instance.take_report().success);
}

TEST(SteppableEngine, FaultyServicePollHarvestsPumpedCompletions) {
  // An external clock owner pumps the shared queue directly; the chaos
  // decorator's poll() must then hand over the inner service's finished
  // attempts (regression: wait_for(0) bailed on its expired deadline
  // before ever looking, stranding every completion).
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 12), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService inner(queue, platform);
  FaultyService faulty(inner, FaultPlan{});  // empty plan: pure pass-through
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, faulty);

  EXPECT_TRUE(instance.step_cooperative());  // submits the root
  ASSERT_EQ(instance.jobs_in_flight(), 1u);
  while (!queue.empty()) queue.step();  // run the attempt to completion
  EXPECT_TRUE(instance.step_cooperative());  // poll() must see it land
  EXPECT_EQ(instance.jobs_in_flight(), 0u);
}

TEST(SteppableEngine, TakeReportGuards) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 3, 6), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);
  EXPECT_THROW(instance.take_report(), common::InvalidArgument);
  while (instance.step()) {
  }
  EXPECT_TRUE(instance.take_report().success);
  EXPECT_THROW(instance.take_report(), common::InvalidArgument);
}

/// Manual-clock stub: submissions pile up; the test completes them.
struct StubService final : ExecutionService {
  double clock = 0;
  std::vector<ConcreteJob> submitted;
  std::vector<TaskAttempt> due;

  void submit(const ConcreteJob& job) override { submitted.push_back(job); }
  std::vector<TaskAttempt> wait() override {
    auto out = std::move(due);
    due.clear();
    return out;
  }
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override {
    clock += std::max(0.0, timeout_seconds);
    return wait();
  }
  double now() override { return clock; }
  [[nodiscard]] std::string label() const override { return "stub"; }
};

TEST(SteppableEngine, NextDeadlineTracksAttemptTimeouts) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 8), "sandhills");
  StubService service;
  EngineOptions options{.retries = 0, .rescue_path = {}};
  options.attempt_timeout_seconds = 50;
  EngineInstance instance(options, workflow, service);

  EXPECT_TRUE(std::isinf(instance.next_deadline()));  // nothing in flight yet
  EXPECT_TRUE(instance.step_cooperative());
  ASSERT_EQ(instance.jobs_in_flight(), 1u);
  EXPECT_DOUBLE_EQ(instance.next_deadline(), 50.0);

  // The driver advances the stub clock to the deadline; the next
  // cooperative step writes the attempt off as timed out, and with
  // retries=0 the root (and thus the chain) is dead.
  service.clock = 50;
  EXPECT_TRUE(instance.step_cooperative());
  EXPECT_EQ(instance.jobs_in_flight(), 0u);
  while (!instance.is_done()) instance.step_cooperative();
  const RunReport report = instance.take_report();
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.timed_out_attempts, 1u);
}

TEST(SteppableEngine, PollDefaultHarvestsWithoutAdvancingClock) {
  const auto workflow = workload::plan_shape(
      small_spec(workload::Shape::kChain, 2, 9), "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  SimService service(queue, platform);
  ExecutionService& as_interface = service;

  EngineInstance instance({.retries = 3, .rescue_path = {}}, workflow, service);
  EXPECT_TRUE(instance.step_cooperative());  // submits the root
  const double before = queue.now();
  EXPECT_TRUE(as_interface.poll().empty());  // completion lies in the future
  EXPECT_DOUBLE_EQ(queue.now(), before);     // poll never advances the clock
}

// ------------------------------------------------- has_output() contract

/// With has_output() false and no queue event due at now(), poll() must
/// return nothing and leave the queue and the clock untouched — the
/// promise the fleet relies on to skip an engine.
void expect_quiet_poll_changes_nothing(sim::EventQueue& queue,
                                       ExecutionService& service) {
  const auto next = queue.next_time();
  if (service.has_output() || (next.has_value() && *next <= queue.now())) return;
  const std::uint64_t processed = queue.processed();
  const double now = queue.now();
  EXPECT_TRUE(service.poll().empty());
  EXPECT_EQ(queue.processed(), processed);
  EXPECT_EQ(queue.now(), now);
}

/// Steps the queue one event at a time, checking the contract before each
/// step, until has_output() turns true; then harvests with poll().
std::vector<TaskAttempt> step_until_output(sim::EventQueue& queue,
                                           ExecutionService& service) {
  while (!service.has_output()) {
    expect_quiet_poll_changes_nothing(queue, service);
    if (!queue.step()) {
      ADD_FAILURE() << "queue drained without output";
      return {};
    }
  }
  return service.poll();
}

/// SimService, Staging(Sim) and Faulty(Staging(Sim)) over one platform.
struct ServiceStacks {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform{queue, {}};
  SimService sim{queue, platform};
  data::TransferManager transfers{queue, {}};
  ReplicaCatalog replicas = testing::staging_heavy_replicas(2);
  data::StagingService staging{queue, sim, transfers, replicas,
                               data::StagingConfig{.execution_site = "osg"}};
  ConcreteWorkflow workflow = testing::staging_heavy_dag(2);

  const ConcreteJob& job(const std::string& id) const {
    return workflow.job_at(workflow.ids().find(id));
  }
};

TEST(HasOutput, TurnsTrueOnADeliveredPlatformCompletion) {
  ServiceStacks s;
  EXPECT_FALSE(s.sim.has_output());
  s.sim.submit(s.job("run_cap3_0"));
  const auto out = step_until_output(s.queue, s.sim);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].job_id, "run_cap3_0");
  EXPECT_FALSE(s.sim.has_output());
}

TEST(HasOutput, TurnsTrueOnAFinishedTransfer) {
  ServiceStacks s;
  EXPECT_FALSE(s.staging.has_output());
  s.staging.submit(s.job("stage_in_0"));
  const auto out = step_until_output(s.queue, s.staging);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].job_id, "stage_in_0");
  EXPECT_GT(out[0].transferred_bytes, 0u);
  EXPECT_FALSE(s.staging.has_output());
  // A compute job passes through; its platform completion wakes the stack.
  s.staging.submit(s.job("run_cap3_1"));
  const auto passed = step_until_output(s.queue, s.staging);
  ASSERT_EQ(passed.size(), 1u);
  EXPECT_EQ(passed[0].job_id, "run_cap3_1");
}

TEST(HasOutput, TurnsTrueOnASynthesizedChaosFailure) {
  ServiceStacks s;
  ChaosConfig chaos;
  chaos.fail_probability = 1.0;
  FaultyService faulty(s.staging, FaultPlan().chaos(chaos));
  EXPECT_FALSE(faulty.has_output());
  const std::uint64_t processed = s.queue.processed();
  faulty.submit(s.job("run_cap3_0"));
  EXPECT_TRUE(faulty.has_output());  // due_ holds it; no event has run
  EXPECT_EQ(s.queue.processed(), processed);
  const auto out = faulty.poll();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].success);
  EXPECT_EQ(out[0].error, "chaos failure");
  EXPECT_FALSE(faulty.has_output());
  expect_quiet_poll_changes_nothing(s.queue, faulty);
}

TEST(HasOutput, TurnsTrueOnAHeldDelayedCompletionAtItsRelease) {
  ServiceStacks s;
  FaultyService faulty(s.staging, FaultPlan().delay("run_cap3_0", 1, 500));
  faulty.submit(s.job("run_cap3_0"));
  // The inner completion wakes the stack, but poll() parks it.
  EXPECT_TRUE(step_until_output(s.queue, faulty).empty());
  EXPECT_FALSE(faulty.has_output());
  const double release = faulty.next_event_time();
  ASSERT_FALSE(std::isinf(release));
  EXPECT_GT(release, s.queue.now());
  while (s.queue.next_time().has_value() && *s.queue.next_time() < release) {
    expect_quiet_poll_changes_nothing(s.queue, faulty);
    s.queue.step();
  }
  expect_quiet_poll_changes_nothing(s.queue, faulty);
  s.queue.advance_to(release);
  EXPECT_TRUE(faulty.has_output());
  const auto out = faulty.poll();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].job_id, "run_cap3_0");
  EXPECT_TRUE(out[0].success);
  EXPECT_FALSE(faulty.has_output());
}

}  // namespace
}  // namespace pga::wms
