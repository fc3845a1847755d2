// Trigger subsystem suite: rule matching (kind/glob/site) in registration
// order, rate limits, dedup windows, firing budgets, RequestSource
// semantics, and the end-to-end storage-event-chained pipeline on the
// fleet — stage-out of one workflow launches the next, byte-identical
// across double runs with and without chaos + staging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "data/storage_events.hpp"
#include "sim/event_queue.hpp"
#include "trigger/trigger.hpp"
#include "waas/fleet.hpp"
#include "workload/generator.hpp"

namespace pga::trigger {
namespace {

data::StorageEvent closew(const char* site, const char* lfn,
                          std::uint64_t bytes = 100, double time = 0) {
  data::StorageEvent event;
  event.type = data::StorageEventType::kFileClosed;
  event.site = site;
  event.lfn = lfn;
  event.bytes = bytes;
  event.time = time;
  return event;
}

TriggerRule rule_named(const char* name, const char* glob = "*") {
  TriggerRule rule;
  rule.name = name;
  rule.lfn_glob = std::string(glob);
  rule.shape.shape = workload::Shape::kChain;
  rule.shape.size = 2;
  return rule;
}

TEST(TriggerEngine, MatchesKindGlobAndSite) {
  TriggerEngine engine;
  auto rule = rule_named("contigs", "*.contigs");
  rule.site = "osg";
  engine.add_rule(rule);

  engine.on_storage_event(closew("osg", "run1.contigs"));      // fires
  engine.on_storage_event(closew("osg", "run1.log"));          // glob miss
  engine.on_storage_event(closew("local", "run2.contigs"));    // site miss
  auto create = closew("osg", "run3.contigs");
  create.type = data::StorageEventType::kFileCreated;          // kind miss
  engine.on_storage_event(create);

  EXPECT_EQ(engine.stats().events_seen, 4u);
  EXPECT_EQ(engine.stats().matches, 1u);
  EXPECT_EQ(engine.stats().fired, 1u);
  EXPECT_EQ(engine.rule_firings("contigs"), 1u);
}

TEST(TriggerEngine, FiresRulesInRegistrationOrderWithDistinctIndices) {
  TriggerEngine::Options options;
  options.index_base = 500;
  TriggerEngine engine(options);
  engine.add_rule(rule_named("first", "*.dat"));
  engine.add_rule(rule_named("second", "*"));

  engine.on_storage_event(closew("local", "a.dat"));
  auto requests = engine.poll(std::numeric_limits<double>::infinity());
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].index, 500u);  // "first" registered first
  EXPECT_EQ(requests[1].index, 501u);
  // Distinct folded seeds: two firings never share a cost stream.
  EXPECT_NE(requests[0].spec.seed, requests[1].spec.seed);
}

TEST(TriggerEngine, DedupWindowSuppressesPerLfnStorms) {
  TriggerEngine engine;
  auto rule = rule_named("dedup");
  rule.dedup_window_seconds = 60;
  engine.add_rule(rule);

  engine.on_storage_event(closew("local", "x", 1, /*time=*/0));
  engine.on_storage_event(closew("local", "x", 1, /*time=*/30));   // in window
  engine.on_storage_event(closew("local", "y", 1, /*time=*/30));   // other lfn
  engine.on_storage_event(closew("local", "x", 1, /*time=*/61));   // expired

  EXPECT_EQ(engine.stats().fired, 3u);
  EXPECT_EQ(engine.stats().suppressed_dedup, 1u);
}

TEST(TriggerEngine, MinIntervalRateLimitsAcrossLfns) {
  TriggerEngine engine;
  auto rule = rule_named("rate");
  rule.min_interval_seconds = 100;
  engine.add_rule(rule);

  engine.on_storage_event(closew("local", "a", 1, /*time=*/0));
  engine.on_storage_event(closew("local", "b", 1, /*time=*/50));   // limited
  engine.on_storage_event(closew("local", "c", 1, /*time=*/100));  // spaced

  EXPECT_EQ(engine.stats().fired, 2u);
  EXPECT_EQ(engine.stats().suppressed_rate, 1u);
}

TEST(TriggerEngine, FiringBudgetsBoundRunawayChains) {
  TriggerEngine::Options options;
  options.max_total_firings = 3;
  TriggerEngine engine(options);
  auto rule = rule_named("bounded");
  rule.max_firings = 2;
  engine.add_rule(rule);
  engine.add_rule(rule_named("open"));

  for (int i = 0; i < 4; ++i) {
    engine.on_storage_event(closew("local", "f", 1, /*time=*/i));
  }
  // "bounded" fires twice then hits its own budget; "open" fires once
  // before the engine-wide budget of 3 gates everything.
  EXPECT_EQ(engine.stats().fired, 3u);
  EXPECT_EQ(engine.rule_firings("bounded"), 2u);
  EXPECT_EQ(engine.rule_firings("open"), 1u);
  EXPECT_EQ(engine.stats().suppressed_budget, 5u);
}

TEST(TriggerEngine, PollDrainsOnlyDueRequestsOnce) {
  TriggerEngine engine;
  auto rule = rule_named("delayed");
  rule.delay_seconds = 10;
  engine.add_rule(rule);
  engine.on_storage_event(closew("local", "a", 1, /*time=*/5));  // due t=15

  EXPECT_TRUE(engine.poll(14.9).empty());
  EXPECT_DOUBLE_EQ(engine.next_arrival(), 15.0);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.poll(15.0).size(), 1u);
  EXPECT_TRUE(engine.poll(15.0).empty());  // exactly once
  EXPECT_TRUE(std::isinf(engine.next_arrival()));
}

TEST(TriggerEngine, ValidatesRules) {
  TriggerEngine engine;
  EXPECT_THROW(engine.add_rule(rule_named("")), common::InvalidArgument);
  engine.add_rule(rule_named("dup"));
  EXPECT_THROW(engine.add_rule(rule_named("dup")), common::InvalidArgument);
  auto negative = rule_named("neg");
  negative.delay_seconds = -1;
  EXPECT_THROW(engine.add_rule(negative), common::InvalidArgument);
  auto empty_shape = rule_named("empty");
  empty_shape.shape.size = 0;
  EXPECT_THROW(engine.add_rule(empty_shape), common::InvalidArgument);
  EXPECT_THROW((void)engine.rule_firings("missing"), common::InvalidArgument);
}

// ----------------------------------------------------------------------
// End-to-end: triggered pipelines through the fleet controller.

struct PipelineResult {
  waas::FleetResult fleet;
  TriggerStats stats;
};

/// One seed workflow; a rule on its stage-out launches follow-on chains,
/// themselves capped by the rule budget (continuous pipeline, bounded).
PipelineResult run_triggered_pipeline(bool with_chaos, std::size_t follow_ons) {
  sim::EventQueue queue;
  waas::FleetOptions options;
  options.tenants = 2;
  options.model_staging = true;  // staging emits the storage events
  if (with_chaos) {
    wms::ChaosConfig chaos;
    chaos.fail_probability = 0.1;
    chaos.delay_probability = 0.1;
    chaos.max_delay_seconds = 100;
    options.chaos = chaos;
    options.engine.retries = 20;
  }
  waas::FleetController controller(queue, options);

  TriggerEngine::Options trigger_options;
  trigger_options.max_total_firings = follow_ons;
  TriggerEngine trigger(trigger_options);
  TriggerRule rule;
  rule.name = "on-assembly";
  // blast2cap3's final stage-out lands assembly.fasta on the submit host;
  // kFileClosed fires on every store of that recycled LFN — including the
  // overwrites each follow-on's own stage-out performs, so the rule
  // launches a self-sustaining pipeline that only the firing budget ends.
  rule.lfn_glob = "assembly.fasta";
  rule.tenant = 1;
  rule.shape.shape = workload::Shape::kBlast2cap3;
  rule.shape.size = 3;
  trigger.add_rule(rule);
  controller.storage_bus()->subscribe(&trigger);

  workload::WorkflowRequest seed;
  seed.index = 0;
  seed.arrival_seconds = 0;
  seed.tenant = 0;
  seed.spec.shape = workload::Shape::kBlast2cap3;
  seed.spec.size = 4;
  seed.spec.seed = 7;

  PipelineResult result{controller.run({seed}, &trigger), trigger.stats()};
  return result;
}

TEST(TriggeredPipeline, StageOutLaunchesFollowOnWorkflows) {
  const PipelineResult result = run_triggered_pipeline(false, 2);
  // 1 seed + exactly the budgeted follow-ons: each follow-on's stage-out
  // would re-trigger the rule forever; the engine-wide budget ends it and
  // counts the suppressed tail.
  EXPECT_EQ(result.fleet.workflows_completed, 3u);
  EXPECT_EQ(result.fleet.workflows_succeeded, 3u);
  EXPECT_EQ(result.stats.fired, 2u);
  EXPECT_GE(result.stats.suppressed_budget, 1u);
  std::size_t triggered = 0;
  for (const auto& outcome : result.fleet.outcomes) {
    if (outcome.index >= 1'000'000) {
      ++triggered;
      EXPECT_EQ(outcome.tenant, 1u);  // billed to the rule's tenant
    }
  }
  EXPECT_EQ(triggered, 2u);
}

TEST(TriggeredPipeline, DoubleRunByteIdentity) {
  const PipelineResult first = run_triggered_pipeline(false, 2);
  const PipelineResult second = run_triggered_pipeline(false, 2);
  EXPECT_EQ(first.fleet.digest, second.fleet.digest);
  EXPECT_EQ(first.fleet.events_processed, second.fleet.events_processed);
  EXPECT_EQ(first.stats.fired, second.stats.fired);
  EXPECT_EQ(first.stats.events_seen, second.stats.events_seen);
}

TEST(TriggeredPipeline, DoubleRunByteIdentityUnderChaos) {
  const PipelineResult first = run_triggered_pipeline(true, 2);
  const PipelineResult second = run_triggered_pipeline(true, 2);
  EXPECT_EQ(first.fleet.digest, second.fleet.digest);
  EXPECT_EQ(first.fleet.events_processed, second.fleet.events_processed);
  EXPECT_EQ(first.stats.events_seen, second.stats.events_seen);
  EXPECT_EQ(first.fleet.workflows_completed, second.fleet.workflows_completed);
}

TEST(TriggeredPipeline, DelayedTriggerFiresAfterEnginesDrain) {
  // A delay pushes the follow-on's arrival past the moment every engine
  // (and the event queue) has drained; the fleet must jump its clock to
  // the pending arrival instead of ending the run.
  sim::EventQueue queue;
  waas::FleetOptions options;
  options.tenants = 1;
  options.model_staging = true;
  waas::FleetController controller(queue, options);

  TriggerEngine::Options trigger_options;
  trigger_options.max_total_firings = 1;
  TriggerEngine trigger(trigger_options);
  TriggerRule rule;
  rule.name = "late";
  rule.lfn_glob = "assembly.fasta";
  rule.delay_seconds = 50'000;  // far past the seed workflow's makespan
  rule.shape.shape = workload::Shape::kChain;
  rule.shape.size = 2;
  trigger.add_rule(rule);
  controller.storage_bus()->subscribe(&trigger);

  workload::WorkflowRequest seed;
  seed.spec.shape = workload::Shape::kBlast2cap3;
  seed.spec.size = 3;
  const waas::FleetResult result = controller.run({seed}, &trigger);
  EXPECT_EQ(result.workflows_completed, 2u);
  EXPECT_GE(result.finished_at_seconds, 50'000.0);
}

}  // namespace
}  // namespace pga::trigger
