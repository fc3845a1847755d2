#include "wms/dax.hpp"

#include <algorithm>
#include <string_view>

#include "common/error.hpp"

namespace pga::wms {

using common::InvalidArgument;
using common::WorkflowError;

std::vector<std::string> AbstractJob::inputs() const {
  std::vector<std::string> out;
  for (const auto& use : uses) {
    if (use.link == LinkType::kInput) out.push_back(use.lfn);
  }
  return out;
}

std::vector<std::string> AbstractJob::outputs() const {
  std::vector<std::string> out;
  for (const auto& use : uses) {
    if (use.link == LinkType::kOutput) out.push_back(use.lfn);
  }
  return out;
}

AbstractWorkflow::AbstractWorkflow(std::string name)
    : WorkflowBase(std::move(name)) {
  if (name_.empty()) throw InvalidArgument("workflow name must not be empty");
}

std::uint32_t AbstractWorkflow::add_job(AbstractJob job) {
  if (job.transformation.empty()) {
    throw InvalidArgument("job " + job.id + " has no transformation");
  }
  return append(std::move(job));
}

void AbstractWorkflow::add_dependency(std::uint32_t parent, std::uint32_t child) {
  WorkflowTopology& topology = own_topology();
  check_edge(parent, child);
  if (topology.graph.has_edge(parent, child, topology.ids)) return;
  if (topology.graph.path_exists(child, parent)) {
    throw WorkflowError("dependency " + jobs_[parent].id + " -> " +
                        jobs_[child].id + " creates a cycle");
  }
  topology.graph.add_edge(parent, child, topology.ids);
}

namespace {

/// Interns every output LFN into `lfns` and returns producer[lfn handle] =
/// the producing job's handle. Throws WorkflowError when two jobs produce
/// one LFN.
std::vector<std::uint32_t> producers(const std::vector<AbstractJob>& jobs,
                                     IdTable& lfns) {
  std::vector<std::uint32_t> producer;
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    for (const auto& lfn : jobs[j].outputs()) {
      const std::uint32_t f = lfns.intern(lfn);
      if (f >= producer.size()) producer.resize(f + 1, IdTable::kInvalid);
      if (producer[f] != IdTable::kInvalid) {
        throw WorkflowError("file " + lfn + " produced by both " +
                            jobs[producer[f]].id + " and " + jobs[j].id);
      }
      producer[f] = j;
    }
  }
  return producer;
}

/// Collects every LFN with flags for "some job produces it" / "some job
/// consumes it", then returns the selected side sorted lexicographically
/// (the order the old std::set scan produced).
std::vector<std::string> lfn_frontier(const std::vector<AbstractJob>& jobs,
                                      bool want_produced) {
  IdTable lfns;
  std::vector<char> produced;
  std::vector<char> consumed;
  for (const auto& job : jobs) {
    for (const auto& use : job.uses) {
      const std::uint32_t f = lfns.intern(use.lfn);
      if (f >= produced.size()) {
        produced.resize(f + 1, 0);
        consumed.resize(f + 1, 0);
      }
      (use.link == LinkType::kOutput ? produced[f] : consumed[f]) = 1;
    }
  }
  std::vector<std::string_view> picked;
  for (std::uint32_t f = 0; f < lfns.size(); ++f) {
    const bool take = want_produced ? (produced[f] && !consumed[f])
                                    : (consumed[f] && !produced[f]);
    if (take) picked.push_back(lfns.name(f));
  }
  std::sort(picked.begin(), picked.end());
  return {picked.begin(), picked.end()};
}

}  // namespace

void AbstractWorkflow::infer_dependencies_from_files() {
  IdTable lfns;
  const std::vector<std::uint32_t> producer = producers(jobs_, lfns);
  for (std::uint32_t self = 0; self < jobs_.size(); ++self) {
    for (const auto& use : jobs_[self].uses) {
      if (use.link != LinkType::kInput) continue;
      const std::uint32_t f = lfns.find(use.lfn);
      if (f != IdTable::kInvalid && producer[f] != self) {
        add_dependency(producer[f], self);
      }
    }
  }
}

std::vector<std::string> AbstractWorkflow::workflow_inputs() const {
  return lfn_frontier(jobs_, /*want_produced=*/false);
}

std::vector<std::string> AbstractWorkflow::workflow_outputs() const {
  return lfn_frontier(jobs_, /*want_produced=*/true);
}

void AbstractWorkflow::validate() const {
  IdTable lfns;
  (void)producers(jobs_, lfns);  // throws on a doubly produced LFN
  (void)topological_order_indices();  // throws on cycles
}

}  // namespace pga::wms
