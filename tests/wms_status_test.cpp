#include "wms/status.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/strings.hpp"
#include "wms/engine.hpp"

namespace pga::wms {
namespace {

TEST(StatusBoard, EmptySnapshot) {
  StatusBoard board;
  const auto snap = board.snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_DOUBLE_EQ(snap.percent_done(), 0.0);
}

TEST(StatusBoard, TracksTransitions) {
  StatusBoard board;
  board.begin("wf", 4);
  board.set_state("a", JobState::kSubmitted);
  board.set_state("b", JobState::kReady);
  board.set_state("c", JobState::kSucceeded);
  auto snap = board.snapshot();
  EXPECT_EQ(snap.total, 4u);
  EXPECT_EQ(snap.submitted, 1u);
  EXPECT_EQ(snap.ready, 1u);
  EXPECT_EQ(snap.succeeded, 1u);
  EXPECT_EQ(snap.unready, 1u);  // untouched job counted unready
  EXPECT_DOUBLE_EQ(snap.percent_done(), 25.0);

  board.set_state("a", JobState::kSucceeded);
  board.set_state("b", JobState::kSubmitted);
  snap = board.snapshot();
  EXPECT_EQ(snap.succeeded, 2u);
  EXPECT_EQ(snap.submitted, 1u);
  EXPECT_EQ(snap.ready, 0u);
}

TEST(StatusBoard, CountsRetriesAndRescues) {
  StatusBoard board;
  board.begin("wf", 2);
  board.count_retry();
  board.count_retry();
  board.set_state("r", JobState::kRescued);
  const auto snap = board.snapshot();
  EXPECT_EQ(snap.retries, 2u);
  EXPECT_EQ(snap.rescued, 1u);
  EXPECT_DOUBLE_EQ(snap.percent_done(), 50.0);
}

TEST(StatusBoard, BeginResets) {
  StatusBoard board;
  board.begin("first", 2);
  board.set_state("a", JobState::kSucceeded);
  board.count_retry();
  board.begin("second", 5);
  const auto snap = board.snapshot();
  EXPECT_EQ(snap.total, 5u);
  EXPECT_EQ(snap.succeeded, 0u);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(board.workflow(), "second");
}

TEST(StatusBoard, StateOfQueriesIndividualJobs) {
  StatusBoard board;
  board.begin("wf", 2);
  EXPECT_EQ(board.state_of("a"), JobState::kUnready);
  board.set_state("a", JobState::kFailed);
  EXPECT_EQ(board.state_of("a"), JobState::kFailed);
}

TEST(StatusBoard, RenderShowsCountsAndPercent) {
  StatusBoard board;
  board.begin("wf", 4);
  board.set_state("a", JobState::kSucceeded);
  board.set_state("b", JobState::kSubmitted);
  const std::string text = board.snapshot().render();
  EXPECT_NE(text.find("RUN:1"), std::string::npos);
  EXPECT_NE(text.find("DONE:1"), std::string::npos);
  EXPECT_NE(text.find("25.0%"), std::string::npos);
}

TEST(JobStateName, AllNamed) {
  EXPECT_STREQ(job_state_name(JobState::kUnready), "UNREADY");
  EXPECT_STREQ(job_state_name(JobState::kSubmitted), "RUN");
  EXPECT_STREQ(job_state_name(JobState::kRescued), "RESCUED");
}

TEST(StatusBoard, EngineIntegrationWithLiveLocalRun) {
  // Poll the board from the main thread while the engine runs a real
  // workflow on a second thread — the pegasus-status usage pattern.
  ConcreteWorkflow wf("live", "local");
  for (int i = 0; i < 12; ++i) {
    ConcreteJob job;
    job.id = common::cat({"j", std::to_string(i)});
    job.transformation = "sleepy";
    wf.add_job(std::move(job));
    if (i > 0) {
      wf.add_dependency(common::cat({"j", std::to_string(i - 1)}),
                        common::cat({"j", std::to_string(i)}));
    }
  }

  StatusBoard board;
  LocalService service(2, [](const ConcreteJob&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  DagmanEngine engine(EngineOptions{.retries = 0, .rescue_path = {}, .status = &board});

  std::atomic<bool> done{false};
  RunReport report;
  std::thread runner([&] {
    report = engine.run(wf, service);
    done.store(true);
  });
  bool saw_progress = false;
  while (!done.load()) {
    const auto snap = board.snapshot();
    EXPECT_LE(snap.percent_done(), 100.0);
    if (snap.percent_done() > 0 && snap.percent_done() < 100) saw_progress = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(saw_progress);
  const auto final_snap = board.snapshot();
  EXPECT_DOUBLE_EQ(final_snap.percent_done(), 100.0);
  EXPECT_EQ(final_snap.succeeded, 12u);
}

TEST(Engine, WorkflowLevelRetriesResumeFromRescue) {
  // A job that fails on its first workflow run but succeeds on resume.
  common::ScratchDir dir("wf-retry");
  ConcreteWorkflow wf("retryable", "local");
  for (const auto* id : {"a", "b", "c"}) {
    ConcreteJob job;
    job.id = id;
    job.transformation = "tf";
    wf.add_job(std::move(job));
  }
  wf.add_dependency("a", "b");
  wf.add_dependency("b", "c");

  std::atomic<int> b_failures{2};  // fail 'b' twice across whole runs
  std::atomic<int> a_executions{0};
  LocalService service(1, [&](const ConcreteJob& job) {
    if (job.id == "a") a_executions.fetch_add(1);
    if (job.id == "b" && b_failures.fetch_sub(1) > 0) {
      throw std::runtime_error("flaky");
    }
  });
  DagmanEngine engine(EngineOptions{
      .retries = 0, .rescue_path = dir.file("rescue.dag"), .status = nullptr});
  const auto report = engine.run_with_workflow_retries(wf, service, 5);
  EXPECT_TRUE(report.success);
  // 'a' ran exactly once: later workflow attempts resumed from the rescue
  // frontier instead of redoing completed work.
  EXPECT_EQ(a_executions.load(), 1);
  EXPECT_EQ(report.jobs_skipped, 1u);
}

TEST(Engine, WorkflowRetriesValidation) {
  ConcreteWorkflow wf("w", "local");
  ConcreteJob job;
  job.id = "a";
  job.transformation = "tf";
  wf.add_job(std::move(job));
  LocalService service(1, [](const ConcreteJob&) {});
  DagmanEngine no_rescue;
  EXPECT_THROW(no_rescue.run_with_workflow_retries(wf, service, 2),
               common::InvalidArgument);
  common::ScratchDir dir("wf-retry-v");
  DagmanEngine engine(EngineOptions{.retries = 0, .rescue_path = dir.file("r.dag"),
                                    .status = nullptr});
  EXPECT_THROW(engine.run_with_workflow_retries(wf, service, 0),
               common::InvalidArgument);
}

}  // namespace
}  // namespace pga::wms
