// The planning stage: abstract workflow -> concrete (executable) workflow.
//
// Mirrors pegasus-plan (§III): resolve transformations against the target
// site, insert stage-in/stage-out transfer jobs for external inputs and
// final outputs, flag (or insert) software-setup steps on sites without a
// preinstalled stack (the Fig. 3 red rectangles), and optionally cluster
// small tasks ("Pegasus also allows clustering of small tasks into larger
// clusters that are scheduled and executed to the same remote site").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/dax.hpp"
#include "wms/workflow_base.hpp"

namespace pga::wms {

/// Role of a concrete job.
enum class JobKind { kCompute, kStageIn, kStageOut, kSetup, kClustered, kCleanup };

/// One schedulable job of the concrete workflow. Kept lean (~128 B): the
/// execution site lives once on ConcreteWorkflow::site() (the planner binds
/// the whole workflow to one site), and clustering metadata lives in side
/// tables keyed by handle — a million-job table pays for none of it.
struct ConcreteJob {
  std::string id;
  std::string transformation;
  std::vector<std::string> args;
  double cpu_seconds_hint = 0;
  /// Size of the stageable software bundle the setup downloads (from
  /// TransformationEntry::size_bytes; 0 = unknown). Drives the per-node
  /// software cache's byte accounting.
  std::uint64_t software_bytes = 0;
  /// For transfer jobs: total bytes moved (0 when replica sizes unknown).
  std::uint64_t staged_bytes = 0;
  /// DAGMan-style priority, honored by the "priority" scheduling policy
  /// (wms/scheduler.hpp): among ready jobs, higher submits first, FIFO
  /// within a priority level. The default FIFO policy ignores it.
  /// Longest-task-first scheduling sets this from the cost hint.
  int priority = 0;
  /// Dense handle assigned by ConcreteWorkflow::add_job (== position in
  /// jobs()). Execution services may echo it back in TaskAttempt::job so
  /// the engine matches completions without a hash lookup; kInvalid until
  /// the job is added to a workflow.
  std::uint32_t index = 0xFFFFFFFFu;
  JobKind kind = JobKind::kCompute;
  /// Pay per-attempt software download/install overhead on the execution
  /// node (OSG-style sites). Mirrors the paper's "modified tasks".
  bool needs_software_setup = false;
};

/// A planned workflow bound to a site. The job arena, ids, graph and read
/// API are WorkflowBase's; this class adds handle stamping, bulk intake,
/// the site and the clustering side table.
class ConcreteWorkflow : public WorkflowBase<ConcreteWorkflow, ConcreteJob> {
 public:
  ConcreteWorkflow(std::string name, std::string site);

  /// Adds a job, stamps ConcreteJob::index and returns its dense handle
  /// (== position in jobs()). Throws InvalidArgument on an empty or
  /// duplicate id or inside an open bulk build.
  std::uint32_t add_job(ConcreteJob job);

  using WorkflowBase::add_dependency;
  /// Handle-based edge insertion — no id lookups, for bulk graph builds.
  /// Duplicates are ignored; no cycle check (the planner copies edges of a
  /// validated abstract workflow).
  void add_dependency(std::uint32_t parent, std::uint32_t child);

  // ------------------------------------------------------- streamed build
  /// Bulk job intake: default-constructs `count` jobs and returns the
  /// array for the caller to fill (in parallel over disjoint ranges — only
  /// plain field writes happen here). finish_bulk() then interns every id
  /// sequentially (the interner is not thread-safe), assigns handles, and
  /// validates non-empty/unique ids; on an empty or duplicate id it throws
  /// InvalidArgument and leaves the workflow empty, as begin_bulk found
  /// it. The workflow must be empty before begin_bulk and jobs()/add_job
  /// must not be used in between.
  ConcreteJob* begin_bulk(std::size_t count);
  void finish_bulk();

  /// A workflow named `name` that shares this one's topology block (ids
  /// and graph, not copied) and copies its job records, site and
  /// clustering table. Both workflows' structural edits then throw
  /// InvalidArgument for as long as the block stays shared; their job
  /// records stay theirs to change (costs, flags — never id or index).
  [[nodiscard]] ConcreteWorkflow share_topology(std::string name) const;

  [[nodiscard]] const std::string& site() const { return site_; }
  /// Mutable access (the planner adjusts flags after structural edits).
  [[nodiscard]] ConcreteJob& mutable_job(const std::string& id) {
    return jobs_[job_index(id)];
  }
  /// jobs()[index], mutable and bounds-checked.
  [[nodiscard]] ConcreteJob& mutable_job_at(std::uint32_t index);

  // --------------------------------------------------- clustering lookups
  /// The abstract job a concrete job realizes: its own id for plain
  /// compute jobs (the planner maps them 1:1), empty for auxiliary and
  /// clustered jobs.
  [[nodiscard]] std::string_view abstract_id_of(std::uint32_t index) const;
  /// The abstract job ids folded into a clustered job (empty for
  /// non-clustered jobs).
  [[nodiscard]] std::vector<std::string> constituents_of(std::uint32_t index) const;
  void set_constituents(std::uint32_t index, std::vector<std::string> members);

  /// Count of jobs of one kind.
  [[nodiscard]] std::size_t count(JobKind kind) const;

 private:
  ConcreteWorkflow(const ConcreteWorkflow& other, std::string name);

  std::string site_;
  bool bulk_open_ = false;
  /// Clustering side table: only clustered jobs have entries.
  std::unordered_map<std::uint32_t, std::vector<std::string>> constituents_;
};

/// Planner knobs.
struct PlannerOptions {
  std::string target_site;
  bool add_stage_jobs = true;      ///< insert stage_in/stage_out transfer jobs
  bool explicit_setup_jobs = false;  ///< emit setup jobs as separate DAG nodes
                                     ///< instead of per-task flags
  std::size_t cluster_factor = 1;  ///< >1: horizontally cluster compute jobs of
                                   ///< the same transformation with identical
                                   ///< parent sets, cluster_factor per group
  /// Base cost hints for transfer jobs; when replica sizes are known the
  /// planner adds bytes / site.stage_bandwidth_bps on top.
  double stage_in_seconds = 60;
  double stage_out_seconds = 60;
  /// Expected total bytes of the final outputs (outputs have no replica
  /// entries at plan time, so they cannot be priced from the catalog).
  /// When nonzero the stage-out job is priced like stage-in: base +
  /// bytes / site.stage_bandwidth_bps, and carries the bytes in
  /// staged_bytes. 0 keeps the flat stage_out_seconds hint.
  std::uint64_t expected_output_bytes = 0;
  double setup_seconds = 300;      ///< cost hint for explicit setup jobs
  /// Pegasus-style in-place data cleanup: for every job producing
  /// intermediate files, insert a cleanup job that removes them once all
  /// consumers finish. Bounds the scratch footprint of large workflows.
  bool add_cleanup_jobs = false;
  double cleanup_seconds = 5;      ///< cost hint per cleanup job
};

/// Cost hint of a transfer job: `base_seconds` plus `bytes` moved at
/// `bandwidth_bps`, with no transfer term when either is zero. Prices the
/// stage-in and stage-out jobs of plan() and of the streamed builder.
[[nodiscard]] double stage_transfer_seconds(double base_seconds,
                                            std::uint64_t bytes,
                                            double bandwidth_bps);

/// Plans `abstract` onto `options.target_site`. Throws WorkflowError when a
/// transformation is not in the catalog for the site, or an external input
/// has no replica. Edge patterns of the abstract workflow propagate to the
/// concrete graph unmaterialized when clustering is off (handles are
/// identical); clustering collapses them into explicit cluster-level edges.
ConcreteWorkflow plan(const AbstractWorkflow& abstract, const SiteCatalog& sites,
                      const TransformationCatalog& transformations,
                      const ReplicaCatalog& replicas, const PlannerOptions& options);

}  // namespace pga::wms
