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
#include <utility>
#include <vector>

#include "wms/catalog.hpp"
#include "wms/dax.hpp"
#include "wms/edge_pattern.hpp"
#include "wms/id_table.hpp"

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

/// A planned workflow bound to a site.
class ConcreteWorkflow {
 public:
  ConcreteWorkflow(std::string name, std::string site);

  /// Adds a job and returns its dense handle (== position in jobs()).
  std::uint32_t add_job(ConcreteJob job);
  void add_dependency(const std::string& parent, const std::string& child);
  /// Handle-based edge insertion — no id lookups, for bulk graph builds.
  void add_dependency(std::uint32_t parent, std::uint32_t child);
  /// O(1)-storage arithmetic edge family; see WorkflowGraph::add_pattern.
  void add_edge_pattern(const EdgePattern& pattern);
  [[nodiscard]] const std::vector<EdgePattern>& edge_patterns() const {
    return graph_.patterns();
  }

  // ------------------------------------------------------- streamed build
  /// Bulk job intake: default-constructs `count` jobs and returns the
  /// array for the caller to fill (in parallel over disjoint ranges — only
  /// plain field writes happen here). finish_bulk() then interns every id
  /// sequentially (the interner is not thread-safe), assigns handles, and
  /// validates non-empty/unique ids. The workflow must be empty before
  /// begin_bulk and jobs()/add_job must not be used in between.
  ConcreteJob* begin_bulk(std::size_t count);
  void finish_bulk();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] const std::vector<ConcreteJob>& jobs() const { return jobs_; }
  [[nodiscard]] const ConcreteJob& job(const std::string& id) const;
  /// Mutable access (the planner adjusts flags after structural edits).
  [[nodiscard]] ConcreteJob& mutable_job(const std::string& id);
  [[nodiscard]] bool has_job(const std::string& id) const;
  /// Dense index of `id` within jobs() (the scheduler core keys its per-job
  /// state by this). Throws InvalidArgument for unknown ids.
  [[nodiscard]] std::uint32_t job_index(const std::string& id) const;
  /// jobs()[index], bounds-checked; the engine's hot path submits by handle.
  [[nodiscard]] const ConcreteJob& job_at(std::uint32_t index) const;
  /// The job-id interner; handle h names jobs()[h].id.
  [[nodiscard]] const IdTable& ids() const { return ids_; }
  /// Parent/child handles of `index`, each list sorted by the neighbour's
  /// id (materialized — use for_each_*/counts on hot paths).
  [[nodiscard]] std::vector<std::uint32_t> parents_of(std::uint32_t index) const;
  [[nodiscard]] std::vector<std::uint32_t> children_of(std::uint32_t index) const;
  [[nodiscard]] std::size_t parent_count(std::uint32_t index) const {
    return graph_.parent_count(index);
  }
  [[nodiscard]] std::size_t child_count(std::uint32_t index) const {
    return graph_.child_count(index);
  }
  /// Visits children/parents of `index` in neighbour-name order without
  /// materializing a list (the engine's release path).
  template <typename Fn>
  void for_each_child(std::uint32_t index, Fn&& fn) const {
    graph_.for_each_child(index, ids_, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_parent(std::uint32_t index, Fn&& fn) const {
    graph_.for_each_parent(index, ids_, std::forward<Fn>(fn));
  }
  /// counts[i] = parent_count(i) in one bulk sweep (engine seed).
  void fill_parent_counts(std::vector<std::uint32_t>& counts) const {
    graph_.fill_parent_counts(counts);
  }
  [[nodiscard]] const WorkflowGraph& graph() const { return graph_; }
  [[nodiscard]] std::vector<std::uint32_t> topological_order_indices() const;
  [[nodiscard]] std::vector<std::string> parents(const std::string& id) const;
  [[nodiscard]] std::vector<std::string> children(const std::string& id) const;
  [[nodiscard]] std::vector<std::string> topological_order() const;
  [[nodiscard]] std::size_t edge_count() const { return graph_.edge_count(); }

  // --------------------------------------------------- clustering lookups
  /// The abstract job a concrete job realizes: its own id for plain
  /// compute jobs (the planner maps them 1:1), empty for auxiliary and
  /// clustered jobs.
  [[nodiscard]] std::string_view abstract_id_of(std::uint32_t index) const;
  /// The abstract job ids folded into a clustered job (empty for
  /// non-clustered jobs).
  [[nodiscard]] std::vector<std::string> constituents_of(std::uint32_t index) const;
  void set_constituents(std::uint32_t index, std::vector<std::string> members);

  /// Pre-sizes the interner and job storage (scale benches build
  /// million-job workflows; one allocation instead of log2(n) regrows).
  void reserve(std::size_t job_count, std::size_t id_bytes = 0);

  /// Count of jobs of one kind.
  [[nodiscard]] std::size_t count(JobKind kind) const;

 private:
  std::string name_;
  std::string site_;
  std::vector<ConcreteJob> jobs_;
  IdTable ids_;  // job id -> handle == index into jobs_
  WorkflowGraph graph_;
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
