#include "workload/topology_cache.hpp"

#include <utility>

namespace pga::workload {

PlannedRequest TopologyCache::plan(const ShapeSpec& spec, const std::string& site) {
  // Drawn first on a hit and a miss alike: it runs build_workflow's spec
  // and cost-model checks, so both paths throw the same errors.
  const CostModel model = cost_model_for(spec);
  const wms::PlannerOptions options;  // plan_shape's options but the site
  Key key{spec.shape,          spec.size, spec.diamond_stages, spec.fan_arity_step,
          spec.edge_patterns, site};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    const wms::AbstractWorkflow abstract = build_workflow(spec);
    wms::PlannerOptions planner_options = options;
    planner_options.target_site = site;
    planner_options.expected_output_bytes = expected_output_bytes(spec, model);
    const wms::SiteCatalog sites = generator_site_catalog();
    std::vector<std::string> inputs = abstract.workflow_inputs();
    wms::ConcreteWorkflow planned =
        wms::plan(abstract, sites, generator_transformation_catalog(abstract),
                  generator_replica_catalog(inputs, model), planner_options);
    const double bandwidth = sites.site(site).stage_bandwidth_bps;
    it = entries_
             .emplace(std::move(key), Entry{std::move(planned), std::move(inputs), bandwidth})
             .first;
  }
  const Entry& entry = it->second;

  PlannedRequest out{entry.workflow.share_topology(spec_name(spec)),
                     generator_replica_catalog(entry.inputs, model)};
  std::uint64_t input_bytes = 0;
  for (std::size_t rank = 0; rank < entry.inputs.size(); ++rank) {
    input_bytes += model.file_bytes(rank);
  }
  const std::uint64_t output_bytes = expected_output_bytes(spec, model);
  wms::ConcreteWorkflow& workflow = out.workflow;
  for (std::uint32_t h = 0; h < workflow.jobs().size(); ++h) {
    wms::ConcreteJob& job = workflow.mutable_job_at(h);
    switch (job.kind) {
      case wms::JobKind::kCompute:
        job.cpu_seconds_hint = model.task_seconds(h);
        break;
      case wms::JobKind::kStageIn:
        job.staged_bytes = input_bytes;
        job.cpu_seconds_hint = wms::stage_transfer_seconds(
            options.stage_in_seconds, input_bytes, entry.stage_bandwidth_bps);
        break;
      case wms::JobKind::kStageOut:
        job.staged_bytes = output_bytes;
        job.cpu_seconds_hint = wms::stage_transfer_seconds(
            options.stage_out_seconds, output_bytes, entry.stage_bandwidth_bps);
        break;
      default:
        break;  // plan_shape adds no other kind
    }
  }
  return out;
}

}  // namespace pga::workload
