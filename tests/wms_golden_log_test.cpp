// Golden-log equivalence suite: the refactored event-driven engine under
// its default FIFO policy must reproduce the pre-refactor engine's
// jobstate logs byte for byte. The fixtures in tests/golden/ were recorded
// against the engine as of the commit preceding the scheduler-core
// refactor; the scenarios are rebuilt here from the same shared builders
// (tests/wms_test_dags.hpp), so any drift — event order, timestamps,
// formatting — fails line-by-line with context.
//
// The same runs double as live-observer equivalence checks: statistics and
// traces accumulated from the event stream must match what the post-hoc
// RunReport paths compute.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/fsutil.hpp"
#include "common/thread_pool.hpp"
#include "core/b2c3_workflow.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/osg.hpp"
#include "wms/analyzer.hpp"
#include "wms/dax_xml.hpp"
#include "wms/dot.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "wms/statistics.hpp"
#include "workload/generator.hpp"
#include "workload/streamed.hpp"
#include "shape_golden_shared.hpp"
#include "wms_test_dags.hpp"

namespace pga::wms {
namespace {

std::filesystem::path golden_path(const std::string& name) {
  return std::filesystem::path(PGA_GOLDEN_DIR) / name;
}

/// Line-by-line comparison with readable context on the first divergence.
void expect_matches_golden(const RunReport& report, const std::string& name) {
  const auto expected = common::read_lines(golden_path(name));
  ASSERT_FALSE(expected.empty()) << "missing or empty fixture: " << name;
  for (std::size_t i = 0; i < std::min(expected.size(), report.jobstate_log.size());
       ++i) {
    ASSERT_EQ(report.jobstate_log[i], expected[i])
        << name << " diverges at line " << i + 1;
  }
  EXPECT_EQ(report.jobstate_log.size(), expected.size()) << name;
}

/// Every scenario also validates the event-stream observers against the
/// post-hoc RunReport paths they replaced.
void expect_observers_agree(const RunReport& report,
                            const StatisticsAccumulator& accumulator,
                            const TraceCollector& live_trace) {
  const auto reference = WorkflowStatistics::from_run(report);
  const auto& live = accumulator.stats();
  EXPECT_EQ(live.success(), reference.success());
  EXPECT_EQ(live.jobs(), reference.jobs());
  EXPECT_EQ(live.attempts(), reference.attempts());
  EXPECT_EQ(live.retries(), reference.retries());
  EXPECT_EQ(live.failed_jobs(), reference.failed_jobs());
  EXPECT_EQ(live.timed_out_attempts(), reference.timed_out_attempts());
  EXPECT_EQ(live.blacklisted_nodes(), reference.blacklisted_nodes());
  EXPECT_DOUBLE_EQ(live.wall_seconds(), reference.wall_seconds());
  EXPECT_DOUBLE_EQ(live.cumulative_kickstart(), reference.cumulative_kickstart());
  EXPECT_DOUBLE_EQ(live.cumulative_badput(), reference.cumulative_badput());
  EXPECT_DOUBLE_EQ(live.cumulative_waiting(), reference.cumulative_waiting());
  EXPECT_DOUBLE_EQ(live.cumulative_install(), reference.cumulative_install());
  EXPECT_DOUBLE_EQ(live.total_backoff_seconds(), reference.total_backoff_seconds());
  // The rendered summaries cover the per-transformation distributions.
  EXPECT_EQ(live.render("x"), reference.render("x"));
  EXPECT_EQ(live_trace.csv(), attempts_csv(report));
  EXPECT_EQ(live_trace.attempt_count(), report.total_attempts);
}

/// Observer bundle every scenario threads through EngineOptions.observers.
struct LiveObservers {
  StatisticsAccumulator statistics;
  TraceCollector trace;

  void attach(EngineOptions& options) {
    options.observers.push_back(&statistics);
    options.observers.push_back(&trace);
  }
};

TEST(GoldenLog, SandhillsN10MatchesPreRefactorEngine) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = 10};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, "sandhills", spec);
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 16;
  config.seed = 11;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);
  EngineOptions options;
  LiveObservers live;
  live.attach(options);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  ASSERT_TRUE(report.success);
  expect_matches_golden(report, "sandhills_n10.log");
  expect_observers_agree(report, live.statistics, live.trace);
}

TEST(GoldenLog, OsgN10MatchesPreRefactorEngine) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = 10};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, "osg", spec);
  sim::EventQueue queue;
  sim::OsgConfig config;
  config.seed = 11;
  sim::OsgPlatform platform(queue, config);
  SimService service(queue, platform);
  EngineOptions options;
  options.retries = 100;
  LiveObservers live;
  live.attach(options);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  ASSERT_TRUE(report.success);
  expect_matches_golden(report, "osg_n10.log");
  expect_observers_agree(report, live.statistics, live.trace);
}

/// Paper-scale scenario: plans blast2cap3 at `n` for `site` and runs it on
/// the platform the pre-PR fixtures were recorded with. Checks the
/// jobstate log byte-for-byte, the rendered statistics against the .stats
/// fixture, and the live observers against the post-hoc paths.
void run_paper_scale_scenario(const std::string& site, std::size_t n) {
  const core::WorkloadModel workload;
  const core::B2c3WorkflowSpec spec{.n = n};
  const auto dax = core::build_blast2cap3_dax(spec, &workload);
  const auto concrete = core::plan_for_site(dax, site, spec);

  // Interning round-trip over the whole planned DAX: every id maps to a
  // dense handle that names back to the same spelling, and handles equal
  // the job's position in jobs().
  const IdTable& ids = concrete.ids();
  ASSERT_EQ(ids.size(), concrete.jobs().size());
  for (std::uint32_t i = 0; i < concrete.jobs().size(); ++i) {
    const auto& job = concrete.jobs()[i];
    EXPECT_EQ(concrete.job_index(job.id), i);
    EXPECT_EQ(ids.name(i), job.id);
    EXPECT_EQ(ids.find(job.id), i);
    EXPECT_EQ(job.index, i);
  }

  sim::EventQueue queue;
  std::unique_ptr<sim::ExecutionPlatform> platform;
  EngineOptions options;
  if (site == "sandhills") {
    sim::CampusClusterConfig config;
    config.allocated_slots = 16;
    config.seed = 11;
    platform = std::make_unique<sim::CampusClusterPlatform>(queue, config);
  } else {
    sim::OsgConfig config;
    config.seed = 11;
    platform = std::make_unique<sim::OsgPlatform>(queue, config);
    options.retries = 100;
  }
  SimService service(queue, *platform);
  LiveObservers live;
  live.attach(options);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  ASSERT_TRUE(report.success);

  const std::string stem = site + "_n" + std::to_string(n);
  expect_matches_golden(report, stem + ".log");
  EXPECT_EQ(WorkflowStatistics::from_run(report).render("golden"),
            common::read_file(golden_path(stem + ".stats")))
      << stem << ".stats";
  expect_observers_agree(report, live.statistics, live.trace);
}

TEST(GoldenLog, SandhillsN100MatchesPreReworkEngine) {
  run_paper_scale_scenario("sandhills", 100);
}

TEST(GoldenLog, OsgN100MatchesPreReworkEngine) {
  run_paper_scale_scenario("osg", 100);
}

TEST(GoldenLog, SandhillsN300MatchesPreReworkEngine) {
  run_paper_scale_scenario("sandhills", 300);
}

TEST(GoldenLog, OsgN300MatchesPreReworkEngine) {
  run_paper_scale_scenario("osg", 300);
}

TEST(GoldenLog, ChaosSeed42MatchesPreRefactorEngine) {
  // The chaos suite's seed-42 run: injected failures, hangs, delays and
  // corruption with every hardening feature on — the densest event stream
  // (RETRY, BACKOFF, TIMEOUT, BLACKLIST) the engine produces.
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = 4;
  config.seed = 42;
  sim::CampusClusterPlatform platform(queue, config);
  SimService sim_service(queue, platform);
  FaultyService faulty(sim_service, FaultPlan().chaos(testing::chaos_for(42)));
  auto options = testing::hardened_options();
  LiveObservers live;
  live.attach(options);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(testing::random_dag(42), faulty);
  expect_matches_golden(report, "chaos_42.log");
  expect_observers_agree(report, live.statistics, live.trace);
}

TEST(GoldenLog, ExplicitFifoAndNullPolicyAreIdentical) {
  // EngineOptions.policy = nullptr must mean exactly fifo_policy(), and a
  // zero-priority workflow must make the priority policy degenerate to it.
  const auto wf = testing::random_dag(7);
  const auto run_with = [&](std::shared_ptr<SchedulingPolicy> policy) {
    sim::EventQueue queue;
    sim::CampusClusterConfig config;
    config.allocated_slots = 4;
    config.seed = 7;
    sim::CampusClusterPlatform platform(queue, config);
    SimService service(queue, platform);
    EngineOptions options;
    options.max_jobs_in_flight = 3;  // make the pick order decisive
    options.policy = std::move(policy);
    DagmanEngine engine(std::move(options));
    return engine.run(wf, service).jobstate_log;
  };
  const auto baseline = run_with(nullptr);
  EXPECT_EQ(run_with(fifo_policy()), baseline);
  EXPECT_EQ(run_with(job_priority_policy()), baseline);
}

// ------------------------------------------------- generated-shape goldens
//
// PR 6: the generator -> planner -> engine byte chain, pinned end-to-end on
// the diamond n=100 scenario shared with bench/shape_ablation --golden
// (which regenerates the fixtures after intentional changes).

void expect_matches_shape_golden(const std::string& site) {
  const auto report = golden_shapes::run_diamond(site);
  ASSERT_TRUE(report.success) << site;
  const std::string stem = golden_shapes::fixture_stem(site);
  expect_matches_golden(report, stem + ".log");
  EXPECT_EQ(WorkflowStatistics::from_run(report).render("golden"),
            common::read_file(golden_path(stem + ".stats")))
      << stem;
}

TEST(GoldenLog, ShapeDiamondSandhillsN100MatchesFixture) {
  expect_matches_shape_golden("sandhills");
}

TEST(GoldenLog, ShapeDiamondOsgN100MatchesFixture) {
  expect_matches_shape_golden("osg");
}

// ------------------------------------------- pattern-compressed identity
//
// PR 10: pattern-compressed and streamed DAG materialization must be
// invisible to every consumer — same jobs, same adjacency, same engine
// bytes as the materialized planner path.

/// Runs `concrete` on its platform (fixture seeds) and returns the report.
RunReport run_concrete(const ConcreteWorkflow& concrete, bool lean = false) {
  sim::EventQueue queue;
  std::unique_ptr<sim::ExecutionPlatform> platform;
  EngineOptions options;
  options.lean_report = lean;
  if (concrete.site() == "sandhills") {
    sim::CampusClusterConfig config;
    config.allocated_slots = 16;
    config.seed = 11;
    platform = std::make_unique<sim::CampusClusterPlatform>(queue, config);
  } else {
    sim::OsgConfig config;
    config.seed = 11;
    platform = std::make_unique<sim::OsgPlatform>(queue, config);
    options.retries = 100;
  }
  SimService service(queue, *platform);
  DagmanEngine engine(std::move(options));
  return engine.run(concrete, service);
}

workload::ShapeSpec b2c3_spec(std::size_t n, bool patterns) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kBlast2cap3;
  spec.size = n;
  spec.edge_patterns = patterns;
  return spec;
}

/// Field-level equality of two concrete workflows: jobs in order, every
/// adjacency list, cluster metadata — the planner-vs-streamed contract.
void expect_same_concrete(const ConcreteWorkflow& a, const ConcreteWorkflow& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.site(), b.site());
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (std::uint32_t i = 0; i < a.jobs().size(); ++i) {
    const ConcreteJob& x = a.jobs()[i];
    const ConcreteJob& y = b.jobs()[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.transformation, y.transformation);
    EXPECT_EQ(x.args, y.args);
    EXPECT_DOUBLE_EQ(x.cpu_seconds_hint, y.cpu_seconds_hint);
    EXPECT_EQ(x.software_bytes, y.software_bytes);
    EXPECT_EQ(x.staged_bytes, y.staged_bytes);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.needs_software_setup, y.needs_software_setup);
    EXPECT_EQ(a.children_of(i), b.children_of(i)) << x.id;
    EXPECT_EQ(a.parents_of(i), b.parents_of(i)) << x.id;
    EXPECT_EQ(a.constituents_of(i), b.constituents_of(i)) << x.id;
    EXPECT_EQ(a.abstract_id_of(i), b.abstract_id_of(i)) << x.id;
  }
  EXPECT_EQ(a.topological_order(), b.topological_order());
}

TEST(PatternedDag, PlannedWorkflowIsBytewiseIndependentOfEdgeStorage) {
  // Patterns on vs off through the whole generator -> planner -> engine ->
  // emitters chain: identical structure, identical bytes.
  for (const std::size_t n : {100u, 300u}) {
    const auto compressed = workload::plan_shape(b2c3_spec(n, true), "sandhills");
    const auto materialized =
        workload::plan_shape(b2c3_spec(n, false), "sandhills");
    ASSERT_EQ(compressed.edge_count(), 4 * n + 7);
    EXPECT_EQ(compressed.edge_count() - compressed.graph().explicit_edge_count(),
              4 * n);
    EXPECT_EQ(materialized.graph().pattern_edge_count(), 0u);
    expect_same_concrete(compressed, materialized);
    EXPECT_EQ(to_dot(compressed), to_dot(materialized));

    const auto abstract_on = workload::build_workflow(b2c3_spec(n, true));
    const auto abstract_off = workload::build_workflow(b2c3_spec(n, false));
    EXPECT_EQ(to_dax_xml(abstract_on), to_dax_xml(abstract_off));
    EXPECT_EQ(to_dot(abstract_on), to_dot(abstract_off));
  }
}

TEST(PatternedDag, EngineLogsAreByteIdenticalAcrossEdgeStorageOnBothSites) {
  for (const std::string site : {"sandhills", "osg"}) {
    for (const std::size_t n : {100u, 300u}) {
      const auto on = run_concrete(workload::plan_shape(b2c3_spec(n, true), site));
      const auto off =
          run_concrete(workload::plan_shape(b2c3_spec(n, false), site));
      ASSERT_TRUE(on.success) << site << " n=" << n;
      EXPECT_EQ(on.jobstate_log, off.jobstate_log) << site << " n=" << n;
    }
  }
}

TEST(PatternedDag, StreamedBuildMatchesPlannerPath) {
  common::ThreadPool pool(4);
  for (const std::string site : {"sandhills", "osg"}) {
    for (const std::size_t n : {1u, 2u, 100u, 257u}) {
      const auto spec = b2c3_spec(n, true);
      workload::StreamedBuildOptions options;
      options.site = site;
      options.pool = &pool;
      options.chunk = 64;  // force multi-chunk parallel fill at small n
      workload::StreamedBuildStats stats;
      const auto streamed =
          workload::build_concrete_streamed(spec, options, &stats);
      const auto planned = workload::plan_shape(spec, site);
      expect_same_concrete(streamed, planned);
      EXPECT_EQ(stats.jobs, n + 8) << site << " n=" << n;
      EXPECT_EQ(stats.pattern_edges + stats.explicit_edges, 4 * n + 7);
      // Explicit edge storage must stay O(1) when patterns are on.
      EXPECT_EQ(stats.explicit_edges, 7u);
    }
  }
}

TEST(PatternedDag, StreamedExplicitModeAlsoMatchesPlannerPath) {
  workload::StreamedBuildOptions options;
  options.site = "osg";
  options.edge_patterns = false;
  const auto streamed =
      workload::build_concrete_streamed(b2c3_spec(64, false), options);
  const auto planned = workload::plan_shape(b2c3_spec(64, false), "osg");
  expect_same_concrete(streamed, planned);
  EXPECT_EQ(streamed.graph().pattern_edge_count(), 0u);
}

TEST(PatternedDag, LeanReportStreamsTheSameDigestAndCounters) {
  for (const std::string site : {"sandhills", "osg"}) {
    const auto concrete = workload::plan_shape(b2c3_spec(100, true), site);
    const auto full = run_concrete(concrete, /*lean=*/false);
    const auto lean = run_concrete(concrete, /*lean=*/true);
    ASSERT_TRUE(full.success);
    EXPECT_TRUE(lean.jobstate_log.empty());
    EXPECT_TRUE(lean.runs.empty());
    EXPECT_EQ(full.jobstate_digest, common::lines_digest(full.jobstate_log));
    EXPECT_EQ(lean.jobstate_digest, full.jobstate_digest) << site;
    EXPECT_EQ(lean.jobstate_lines, full.jobstate_log.size());
    EXPECT_EQ(lean.jobs_total, full.jobs_total);
    EXPECT_EQ(lean.jobs_succeeded, full.jobs_succeeded);
    EXPECT_EQ(lean.total_attempts, full.total_attempts);
    EXPECT_EQ(lean.total_retries, full.total_retries);
    EXPECT_DOUBLE_EQ(lean.end_time, full.end_time);
    EXPECT_EQ(lean.success, full.success);
  }
}

TEST(GoldenLog, ShapeDiamondPlansPinTheCostModelBytes) {
  // The stage jobs' byte prices must come from exactly the spec's IO
  // model, on both platforms — the planner half of the golden scenario.
  const auto spec = golden_shapes::diamond_n100_spec();
  const auto model = workload::cost_model_for(spec);
  const auto counts = workload::closed_form_counts(spec);
  std::uint64_t input_bytes = 0;
  for (std::size_t i = 0; i < counts.inputs; ++i) {
    input_bytes += model.file_bytes(i);
  }
  for (const std::string site : {"sandhills", "osg"}) {
    const auto concrete = golden_shapes::plan_diamond(site);
    ASSERT_EQ(concrete.jobs().size(), counts.jobs + 2) << site;
    EXPECT_EQ(concrete.job("stage_in_0").staged_bytes, input_bytes) << site;
    EXPECT_EQ(concrete.job("stage_out_0").staged_bytes,
              workload::expected_output_bytes(spec))
        << site;
  }
}

}  // namespace
}  // namespace pga::wms
