// Abstract workflows — the DAX layer of the Pegasus model.
//
// An abstract workflow names *logical* transformations and files only; it
// knows nothing about sites, physical paths, or software setup. The
// planner (planner.hpp) maps it onto a concrete, executable workflow.
//
// The job arena, interned ids and pattern-compressed graph are the shared
// workflow container (workflow_base.hpp); this layer adds the DAX rules:
// every job names a transformation, and explicit edges are cycle-checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wms/workflow_base.hpp"

namespace pga::wms {

/// Direction of a file use.
enum class LinkType { kInput, kOutput };

/// One logical-file usage by a job.
struct FileUse {
  std::string lfn;  ///< logical file name, e.g. "alignments.out"
  LinkType link = LinkType::kInput;

  friend bool operator==(const FileUse&, const FileUse&) = default;
};

/// One abstract job (a DAX <job> element).
struct AbstractJob {
  std::string id;              ///< unique within the workflow, e.g. "split"
  std::string transformation;  ///< logical executable name
  std::vector<std::string> args;
  std::vector<FileUse> uses;
  /// Cost-model hint: CPU-seconds of work at reference speed. Carried into
  /// the concrete workflow for simulated execution.
  double cpu_seconds_hint = 0;

  [[nodiscard]] std::vector<std::string> inputs() const;
  [[nodiscard]] std::vector<std::string> outputs() const;
};

/// A directed acyclic graph of abstract jobs. The job arena, ids, graph
/// and read API are WorkflowBase's; this class adds the DAX rules.
class AbstractWorkflow : public WorkflowBase<AbstractWorkflow, AbstractJob> {
 public:
  /// Throws InvalidArgument on an empty name.
  explicit AbstractWorkflow(std::string name);

  /// Adds a job; throws InvalidArgument on duplicate or empty id or an
  /// empty transformation. Returns the job's dense handle (== position in
  /// jobs()).
  std::uint32_t add_job(AbstractJob job);

  using WorkflowBase::add_dependency;
  /// Handle-based edge insertion — no id lookups, for bulk graph builds.
  /// Duplicate edges are ignored (including edges a pattern already
  /// covers). Throws WorkflowError if the edge creates a cycle.
  void add_dependency(std::uint32_t parent, std::uint32_t child);

  /// Derives edges from data flow: if job A outputs an LFN that job B
  /// inputs, adds A -> B. Call after all jobs are added (Pegasus does the
  /// same from <uses> declarations).
  void infer_dependencies_from_files();

  /// LFNs consumed by some job but produced by none: the workflow's
  /// external inputs (must come from the replica catalog).
  [[nodiscard]] std::vector<std::string> workflow_inputs() const;

  /// LFNs produced but never consumed: the workflow's final outputs.
  [[nodiscard]] std::vector<std::string> workflow_outputs() const;

  /// Sanity checks: every LFN has at most one producer, graph acyclic.
  /// Throws WorkflowError with a description of the first violation.
  void validate() const;
};

}  // namespace pga::wms
