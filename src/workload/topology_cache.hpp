// Plan once per topology: the generated-workflow admission path.
//
// Two ShapeSpecs that agree on shape, size, diamond_stages, fan_arity_step
// and edge_patterns build the same DAG — ids, edges, file uses — and differ
// only in the costs their seeds and cost parameters draw. Planned for the
// same site they give the same concrete topology too. TopologyCache plans
// each such (topology, site) key once (build_workflow + catalogs +
// wms::plan, exactly what plan_shape does) and serves every later request
// of the key from that plan: the new workflow shares the planned
// WorkflowTopology block (workflow_base.hpp), copies the job records, and
// only the request's own costs are written over them:
//
//   * compute jobs' cpu_seconds_hint = cost_model_for(spec).task_seconds(h)
//     (task rank == handle: the planner keeps the abstract build order);
//   * the stage-in/stage-out jobs' staged_bytes and hints, priced with
//     wms::stage_transfer_seconds like the planner prices them;
//   * a fresh replica catalog over the cached input LFNs.
//
// The result equals plan_shape(spec, site) job by job and edge by edge
// (tests/waas_topology_cache_test.cpp). A request with a bad spec or cost
// parameters throws the typed error build_workflow would, hit or miss.
//
// Not thread-safe: one cache per owner thread (the fleet controller holds
// one). It is empty, and allocation-free, until the first request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/planner.hpp"
#include "workload/generator.hpp"

namespace pga::workload {

/// One request's planned workflow and the replica catalog its staging reads.
struct PlannedRequest {
  wms::ConcreteWorkflow workflow;
  wms::ReplicaCatalog replicas;
};

class TopologyCache {
 public:
  /// The workflow plan_shape(spec, site) would return, sharing the
  /// topology block of every earlier request with the same key, plus
  /// generator_replica_catalog's catalog for it. Throws what
  /// build_workflow / wms::plan throw for a bad spec, cost model or site.
  [[nodiscard]] PlannedRequest plan(const ShapeSpec& spec, const std::string& site);

  /// Distinct (topology, site) keys planned so far.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Key {
    Shape shape;
    std::size_t size;
    std::size_t diamond_stages;
    std::size_t fan_arity_step;
    bool edge_patterns;
    std::string site;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    wms::ConcreteWorkflow workflow;   ///< the first request's plan
    std::vector<std::string> inputs;  ///< workflow_inputs(), file-rank order
    double stage_bandwidth_bps;       ///< the site's staging bandwidth
  };

  std::map<Key, Entry> entries_;
};

}  // namespace pga::workload
