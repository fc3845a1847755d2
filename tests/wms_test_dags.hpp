// Shared deterministic scenario builders for the engine test suites.
//
// The chaos suite (wms_chaos_test.cpp), the golden-log equivalence test
// (wms_golden_log_test.cpp) and the golden-log generator all build their
// workflows and fault plans from these helpers, so the recorded logs and
// the replayed runs can never drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "sim/campus_cluster.hpp"
#include "wms/catalog.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "wms/fault_injection.hpp"
#include "workload/generator.hpp"

namespace pga::wms::testing {

/// Random DAG in the style of tests/property_test.cpp: forward edges only.
inline ConcreteWorkflow random_dag(std::uint64_t seed, int n = 25) {
  common::Rng rng(seed);
  ConcreteWorkflow wf(common::cat({"chaos-", std::to_string(seed)}), "sim");
  for (int i = 0; i < n; ++i) {
    ConcreteJob job;
    job.id = common::cat({"j", std::to_string(i)});
    job.transformation = i % 3 == 0 ? "split" : "run_cap3";
    job.cpu_seconds_hint = rng.uniform(50, 500);
    wf.add_job(std::move(job));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.chance(0.12)) {
        wf.add_dependency(common::cat({"j", std::to_string(i)}),
                          common::cat({"j", std::to_string(j)}));
      }
    }
  }
  return wf;
}

/// The chaos suite's standard fault mix for one seed.
inline ChaosConfig chaos_for(std::uint64_t seed) {
  ChaosConfig chaos;
  chaos.fail_probability = 0.15;
  chaos.hang_probability = 0.10;
  chaos.delay_probability = 0.10;
  chaos.corrupt_probability = 0.05;
  chaos.max_delay_seconds = 400;
  chaos.seed = seed;
  return chaos;
}

/// Staging-heavy diamond: one stage_in fans `width` large reference files
/// into `width` compute jobs whose outputs a final stage_out collects.
/// The stage jobs carry lfn args (the planner's convention), so the data
/// layer's StagingService intercepts them while plain SimService runs them
/// as ordinary transfer-priced jobs — letting the scheduler, chaos and
/// data-layer suites share one scenario.
inline ConcreteWorkflow staging_heavy_dag(std::size_t width = 4,
                                          const std::string& site = "osg") {
  ConcreteWorkflow wf(common::cat({"staging-heavy-", std::to_string(width)}), site);
  ConcreteJob stage_in;
  stage_in.id = "stage_in_0";
  stage_in.transformation = "pegasus-transfer";
  stage_in.kind = JobKind::kStageIn;
  stage_in.cpu_seconds_hint = 60;
  for (std::size_t i = 0; i < width; ++i) {
    stage_in.args.push_back(common::cat({"reference_", std::to_string(i), ".fasta"}));
  }
  wf.add_job(std::move(stage_in));
  ConcreteJob stage_out;
  stage_out.id = "stage_out_0";
  stage_out.transformation = "pegasus-transfer";
  stage_out.kind = JobKind::kStageOut;
  stage_out.cpu_seconds_hint = 60;
  for (std::size_t i = 0; i < width; ++i) {
    ConcreteJob job;
    job.id = common::cat({"run_cap3_", std::to_string(i)});
    job.transformation = "run_cap3";
    job.cpu_seconds_hint = 200 + 10.0 * static_cast<double>(i);
    job.needs_software_setup = site == "osg";
    job.software_bytes = 350ull * 1024 * 1024;
    wf.add_job(std::move(job));
    wf.add_dependency("stage_in_0", common::cat({"run_cap3_", std::to_string(i)}));
    stage_out.args.push_back(common::cat({"contigs_", std::to_string(i), ".fasta"}));
  }
  wf.add_job(std::move(stage_out));
  for (std::size_t i = 0; i < width; ++i) {
    wf.add_dependency(common::cat({"run_cap3_", std::to_string(i)}), "stage_out_0");
  }
  return wf;
}

/// Replicas for staging_heavy_dag(): every reference file lives on the
/// submit host ("local") at 64 MiB, with the even-numbered ones also
/// mirrored on `site` so replica selection has a same-site option.
inline ReplicaCatalog staging_heavy_replicas(std::size_t width = 4,
                                             const std::string& site = "osg") {
  ReplicaCatalog rc;
  for (std::size_t i = 0; i < width; ++i) {
    const std::string lfn = common::cat({"reference_", std::to_string(i), ".fasta"});
    rc.add(lfn, {"/data/" + lfn, "local", 64ull * 1024 * 1024});
    if (i % 2 == 0) rc.add(lfn, {"/scratch/" + lfn, site, 64ull * 1024 * 1024});
  }
  return rc;
}

// ------------------------------------------------------- generated shapes
//
// Shared specs for the cross-shape suites (scheduler acceptance, chaos,
// data chaos, shape_ablation --smoke), so test assertions and the CI
// perf-smoke guard exercise identical workloads.

/// Chain-heavy adversarial shape: per-sample NGS chains with Zipf costs
/// assigned ASCENDING over build order, so FIFO releases the cheapest
/// chains first and pays the straggler tail the critical-path policy's
/// LPT-style release avoids — the generated-shape analogue of the
/// adversarial blast2cap3 n=10 split.
inline workload::ShapeSpec adversarial_ngs_spec(std::size_t samples = 8) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kNgsPipeline;
  spec.size = samples;
  spec.seed = 5;
  spec.cost.cpu = workload::CostDistribution::kZipf;
  spec.cost.cpu_order = workload::CostOrder::kAscending;
  return spec;
}

/// Fan-heavy shape: gateway i gates 1 + 2i leaves, with Zipf costs
/// ascending over build order so the wide gateways' subtrees also carry
/// most of the work (with uniform costs every work-conserving schedule
/// ties). FIFO starts the narrowest gateway first and meets the wide
/// subtrees as a tail; widest-branch starts the widest.
inline workload::ShapeSpec fan_heavy_spec(std::size_t gateways = 6) {
  workload::ShapeSpec spec;
  spec.shape = workload::Shape::kFan;
  spec.size = gateways;
  spec.fan_arity_step = 2;
  spec.seed = 5;
  spec.cost.cpu = workload::CostDistribution::kZipf;
  spec.cost.cpu_order = workload::CostOrder::kAscending;
  return spec;
}

/// One small instance of every generator shape, for completeness sweeps.
inline std::vector<workload::ShapeSpec> small_shape_specs(std::uint64_t seed = 5) {
  std::vector<workload::ShapeSpec> specs;
  for (const workload::Shape shape : workload::all_shapes()) {
    workload::ShapeSpec spec;
    spec.shape = shape;
    spec.size = 8;
    spec.seed = seed;
    specs.push_back(spec);
  }
  return specs;
}

/// Simulated campus wall time of a planned shape under `policy`: slots and
/// throttle pinned together (the regime where release order is decisive),
/// platform seed 11 — the knobs every golden scenario uses.
inline double shape_wall(const workload::ShapeSpec& spec, const std::string& policy,
                         std::size_t slots = 4, std::size_t throttle = 4) {
  const auto concrete = workload::plan_shape(spec, "sandhills");
  sim::EventQueue queue;
  sim::CampusClusterConfig config;
  config.allocated_slots = slots;
  config.seed = 11;
  sim::CampusClusterPlatform platform(queue, config);
  SimService service(queue, platform);
  EngineOptions options;
  options.max_jobs_in_flight = throttle;
  options.policy = make_policy(policy);
  DagmanEngine engine(std::move(options));
  const auto report = engine.run(concrete, service);
  return report.success ? report.wall_seconds() : -1.0;
}

/// Engine options with every hardening feature switched on.
inline EngineOptions hardened_options() {
  EngineOptions options;
  options.retries = 6;
  // Far above any genuine attempt's queue-wait + exec + injected delay on
  // the campus backend, so only injected hangs ever trip it.
  options.attempt_timeout_seconds = 20'000;
  options.backoff_base_seconds = 5;
  options.backoff_max_seconds = 60;
  options.backoff_jitter = 0.25;
  options.node_blacklist_threshold = 3;
  return options;
}

}  // namespace pga::wms::testing
