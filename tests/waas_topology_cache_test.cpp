// Plan once per topology: a TopologyCache request must equal planning the
// spec from scratch (workload::plan_shape) job by job, bit for bit and
// edge by edge, its replica catalog must equal generator_replica_catalog,
// requests of one key must share one topology block, and a shared block
// must refuse structural edits.
#include "workload/topology_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pga::workload {
namespace {

ShapeSpec spec_of(Shape shape, std::uint64_t seed, bool patterns) {
  ShapeSpec spec;
  spec.shape = shape;
  spec.size = 7;
  spec.seed = seed;
  spec.edge_patterns = patterns;
  return spec;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_workflow(const wms::ConcreteWorkflow& got,
                          const wms::ConcreteWorkflow& want) {
  EXPECT_EQ(got.name(), want.name());
  EXPECT_EQ(got.site(), want.site());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  ASSERT_EQ(got.jobs().size(), want.jobs().size());
  for (std::uint32_t h = 0; h < want.jobs().size(); ++h) {
    const wms::ConcreteJob& a = got.jobs()[h];
    const wms::ConcreteJob& b = want.jobs()[h];
    SCOPED_TRACE(b.id);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.transformation, b.transformation);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(bits(a.cpu_seconds_hint), bits(b.cpu_seconds_hint));
    EXPECT_EQ(a.staged_bytes, b.staged_bytes);
    EXPECT_EQ(a.software_bytes, b.software_bytes);
    EXPECT_EQ(a.needs_software_setup, b.needs_software_setup);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(got.children_of(h), want.children_of(h));
    EXPECT_EQ(got.parents_of(h), want.parents_of(h));
  }
}

void expect_same_catalog(const wms::ReplicaCatalog& got, const wms::ReplicaCatalog& want) {
  const auto a = got.entries();
  const auto b = want.entries();
  ASSERT_EQ(a.size(), b.size());
  for (auto it = a.begin(), jt = b.begin(); it != a.end(); ++it, ++jt) {
    EXPECT_EQ(it->first, jt->first);
    ASSERT_EQ(it->second.size(), jt->second.size());
    for (std::size_t r = 0; r < it->second.size(); ++r) {
      EXPECT_EQ(it->second[r].pfn, jt->second[r].pfn);
      EXPECT_EQ(it->second[r].site, jt->second[r].site);
      EXPECT_EQ(it->second[r].size_bytes, jt->second[r].size_bytes);
    }
  }
}

TEST(TopologyCache, EveryRequestEqualsPlanningItFromScratch) {
  TopologyCache cache;
  std::size_t keys = 0;
  for (const Shape shape : all_shapes()) {
    for (const bool patterns : {false, true}) {
      for (const std::string site : {"sandhills", "osg"}) {
        ++keys;
        for (const std::uint64_t seed : {11u, 12u, 13u}) {
          ShapeSpec spec = spec_of(shape, seed, patterns);
          if (seed == 13) {
            // Cost parameters are not part of the key either.
            spec.cost.cpu_order = CostOrder::kAscending;
            spec.cost.io = CostDistribution::kZipf;
          }
          SCOPED_TRACE(common::cat({spec_name(spec), patterns ? " patterns " : " explicit ",
                                    site}));
          const PlannedRequest planned = cache.plan(spec, site);
          EXPECT_EQ(cache.size(), keys);
          expect_same_workflow(planned.workflow, plan_shape(spec, site));
          expect_same_catalog(planned.replicas,
                              generator_replica_catalog(build_workflow(spec), spec));
        }
      }
    }
  }
  EXPECT_EQ(cache.size(), 24u);
}

TEST(TopologyCache, RequestsOfOneKeyShareOneTopologyBlock) {
  TopologyCache cache;
  const ShapeSpec first = spec_of(Shape::kBlast2cap3, 1, true);
  ShapeSpec second = first;
  second.seed = 2;
  const PlannedRequest a = cache.plan(first, "osg");
  const PlannedRequest b = cache.plan(second, "osg");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(&a.workflow.ids(), &b.workflow.ids());
  EXPECT_EQ(&a.workflow.graph(), &b.workflow.graph());
  EXPECT_NE(&a.workflow.jobs(), &b.workflow.jobs());
  EXPECT_NE(a.workflow.name(), b.workflow.name());

  // Another site, size or edge layout is another key.
  const PlannedRequest campus = cache.plan(first, "sandhills");
  ShapeSpec wider = first;
  wider.size = 8;
  const PlannedRequest other_size = cache.plan(wider, "osg");
  ShapeSpec explicit_edges = first;
  explicit_edges.edge_patterns = false;
  const PlannedRequest other_layout = cache.plan(explicit_edges, "osg");
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_NE(&campus.workflow.graph(), &a.workflow.graph());
  EXPECT_NE(&other_size.workflow.graph(), &a.workflow.graph());
  EXPECT_NE(&other_layout.workflow.graph(), &a.workflow.graph());
}

TEST(TopologyCache, BadSpecsThrowTheSameErrorOnAHitAndAMiss) {
  ShapeSpec good = spec_of(Shape::kChain, 1, false);
  ShapeSpec bad_cost = good;
  bad_cost.cost.cpu_mean_seconds = -1;
  ShapeSpec bad_beta = good;
  bad_beta.cost.cpu_beta = 0.5;
  for (const ShapeSpec& bad : {bad_cost, bad_beta}) {
    TopologyCache cold;
    EXPECT_THROW((void)cold.plan(bad, "sandhills"), common::InvalidArgument);  // miss
    EXPECT_EQ(cold.size(), 0u);
    EXPECT_THROW((void)build_workflow(bad), common::InvalidArgument);

    TopologyCache warm;
    (void)warm.plan(good, "sandhills");
    EXPECT_THROW((void)warm.plan(bad, "sandhills"), common::InvalidArgument);  // hit
    EXPECT_EQ(warm.size(), 1u);
  }
  TopologyCache cache;
  ShapeSpec tiny = spec_of(Shape::kMontage, 1, false);
  tiny.size = 1;  // montage needs >= 2
  EXPECT_THROW((void)cache.plan(tiny, "osg"), common::InvalidArgument);
  EXPECT_THROW((void)cache.plan(good, "nowhere"), common::WorkflowError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TopologyCache, ASharedTopologyRefusesStructuralEdits) {
  wms::ConcreteWorkflow original = plan_shape(spec_of(Shape::kDiamond, 1, true), "osg");
  {
    wms::ConcreteWorkflow sharer = original.share_topology("sharer");
    EXPECT_EQ(&sharer.graph(), &original.graph());
    for (wms::ConcreteWorkflow* workflow : {&original, &sharer}) {
      wms::ConcreteJob job;
      job.id = "extra";
      EXPECT_THROW(workflow->add_job(job), common::InvalidArgument);
      EXPECT_THROW(workflow->add_dependency(0u, 1u), common::InvalidArgument);
      EXPECT_THROW(workflow->add_dependency("source", "join_0"), common::InvalidArgument);
      EXPECT_THROW(workflow->add_edge_pattern({.src_begin = 0,
                                               .dst_begin = 1,
                                               .count = 1,
                                               .src_stride = 0,
                                               .dst_stride = 1}),
                   common::InvalidArgument);
      EXPECT_THROW(workflow->reserve(100), common::InvalidArgument);
    }
    EXPECT_THROW((void)sharer.begin_bulk(1), common::InvalidArgument);
    // Job records stay per workflow.
    sharer.mutable_job_at(0).cpu_seconds_hint = 1234;
    EXPECT_NE(original.jobs()[0].cpu_seconds_hint, 1234);
  }
  // The last sharer is gone: the block is the original's alone again.
  wms::ConcreteJob job;
  job.id = "extra";
  job.transformation = "tf";
  EXPECT_NO_THROW(original.add_job(job));
}

}  // namespace
}  // namespace pga::workload
