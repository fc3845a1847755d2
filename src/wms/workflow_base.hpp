// The workflow container shared by the abstract (DAX) and concrete
// (planned) workflows.
//
// Planning maps one DAG onto another with the same topology; only the job
// record changes. WorkflowBase is that DAG: a name, a dense job arena and
// a topology block — the id interner (IdTable, handle h names
// jobs()[h].id) and the pattern-compressed WorkflowGraph — plus the whole
// id/handle read API. AbstractWorkflow and ConcreteWorkflow derive from it
// (CRTP, no virtual calls) and keep only what differs: how a job is
// admitted and whether an edge is cycle-checked. The string-based
// parents()/children()/topological_order() are thin shims over the handle
// layout and keep the sorted-id ordering whether an edge is stored
// explicitly or as a pattern.
//
// The topology block sits behind a shared_ptr so workflows that differ
// only in their job records (the same planned shape with other costs) can
// share one: a sharing copy gets its own name and job arena and points at
// the same ids and graph. While a block is shared it is frozen — every
// structural edit (jobs, edges, patterns, bulk builds, reserve) throws
// InvalidArgument — so no sharer can change what another one reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "wms/edge_pattern.hpp"
#include "wms/id_table.hpp"

namespace pga::wms {

/// What workflows of one topology share: the job-id interner and the
/// graph over its handles.
struct WorkflowTopology {
  IdTable ids;  // job id -> handle == index into the job arena
  WorkflowGraph graph;
};

/// `Derived` provides add_dependency(u32 parent, u32 child) — the edge
/// rule — which the id-based overload here forwards to.
template <typename Derived, typename Job>
class WorkflowBase {
 public:
  explicit WorkflowBase(std::string name)
      : name_(std::move(name)), topology_(std::make_shared<WorkflowTopology>()) {}

  // Copying would silently share (and so freeze) the topology; sharing is
  // explicit (the protected constructor below). A moved-from workflow may
  // only be destroyed or assigned to.
  WorkflowBase(const WorkflowBase&) = delete;
  WorkflowBase& operator=(const WorkflowBase&) = delete;
  WorkflowBase(WorkflowBase&&) noexcept = default;
  WorkflowBase& operator=(WorkflowBase&&) noexcept = default;

  /// Pre-sizes the job vector, interner arena and adjacency index for
  /// `job_count` jobs whose ids total ~`id_bytes` — kills realloc/rehash
  /// churn in million-job builds.
  void reserve(std::size_t job_count, std::size_t id_bytes = 0) {
    WorkflowTopology& topology = own_topology();
    jobs_.reserve(job_count);
    topology.ids.reserve(job_count, id_bytes);
    topology.graph.reserve(job_count);
  }

  /// Adds a parent -> child edge by id; both ids must exist (throws
  /// InvalidArgument otherwise). The handle overload of `Derived` decides
  /// duplicates and cycles.
  void add_dependency(const std::string& parent, const std::string& child) {
    const std::uint32_t p = ids().find(parent);
    const std::uint32_t c = ids().find(child);
    if (p == IdTable::kInvalid) {
      throw common::InvalidArgument("unknown parent job: " + parent);
    }
    if (c == IdTable::kInvalid) {
      throw common::InvalidArgument("unknown child job: " + child);
    }
    static_cast<Derived&>(*this).add_dependency(p, c);
  }

  /// Adds a whole arithmetic family of edges in O(1) storage. All endpoint
  /// handles must already exist and each strided side must ascend in name
  /// order (zero-padded ids); see WorkflowGraph::add_pattern for the
  /// validation rules. No cycle check — topological_order() throws on one.
  void add_edge_pattern(const EdgePattern& pattern) {
    WorkflowTopology& topology = own_topology();
    topology.graph.add_pattern(pattern, topology.ids);
  }
  [[nodiscard]] const std::vector<EdgePattern>& edge_patterns() const {
    return graph().patterns();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }
  /// The job named `id`; throws InvalidArgument for unknown ids.
  [[nodiscard]] const Job& job(const std::string& id) const {
    return jobs_[job_index(id)];
  }
  [[nodiscard]] bool has_job(const std::string& id) const {
    return ids().contains(id);
  }

  // ----------------------------------------------------- handle interface
  /// Dense handle of `id` (its position in jobs()); throws InvalidArgument
  /// for unknown ids.
  [[nodiscard]] std::uint32_t job_index(const std::string& id) const {
    const std::uint32_t handle = ids().find(id);
    if (handle == IdTable::kInvalid) {
      throw common::InvalidArgument("unknown job: " + id);
    }
    return handle;
  }
  /// jobs()[index], bounds-checked; the engine's hot path submits by handle.
  [[nodiscard]] const Job& job_at(std::uint32_t index) const {
    check_handle(index);
    return jobs_[index];
  }
  /// The job-id interner; handle h names jobs()[h].id.
  [[nodiscard]] const IdTable& ids() const { return topology_->ids; }
  /// Parent/child handles of `index`, each list sorted by the neighbour's
  /// id (materialized — use for_each_*/counts on hot paths).
  [[nodiscard]] std::vector<std::uint32_t> parents_of(std::uint32_t index) const {
    check_handle(index);
    return graph().parents_sorted(index, ids());
  }
  [[nodiscard]] std::vector<std::uint32_t> children_of(std::uint32_t index) const {
    check_handle(index);
    return graph().children_sorted(index, ids());
  }
  [[nodiscard]] std::size_t parent_count(std::uint32_t index) const {
    return graph().parent_count(index);
  }
  [[nodiscard]] std::size_t child_count(std::uint32_t index) const {
    return graph().child_count(index);
  }
  /// Visits children/parents of `index` in neighbour-name order without
  /// materializing a list (the engine's release path).
  template <typename Fn>
  void for_each_child(std::uint32_t index, Fn&& fn) const {
    graph().for_each_child(index, ids(), std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_parent(std::uint32_t index, Fn&& fn) const {
    graph().for_each_parent(index, ids(), std::forward<Fn>(fn));
  }
  /// counts[i] = parent_count(i) in one bulk sweep (engine seed).
  void fill_parent_counts(std::vector<std::uint32_t>& counts) const {
    graph().fill_parent_counts(counts);
  }
  /// The underlying pattern-compressed graph (planner bulk copies).
  [[nodiscard]] const WorkflowGraph& graph() const { return topology_->graph; }
  [[nodiscard]] std::size_t edge_count() const { return graph().edge_count(); }
  /// Kahn topological order over handles; throws WorkflowError on a cycle.
  [[nodiscard]] std::vector<std::uint32_t> topological_order_indices() const {
    return graph().topological_order(ids(), "workflow " + name_);
  }

  // ------------------------------------------------- string compatibility
  /// Parents/children of `id`, sorted by id.
  [[nodiscard]] std::vector<std::string> parents(const std::string& id) const {
    const std::uint32_t index = job_index(id);
    std::vector<std::string> out;
    out.reserve(graph().parent_count(index));
    for_each_parent(index, [&](std::uint32_t h) { out.emplace_back(ids().name(h)); });
    return out;
  }
  [[nodiscard]] std::vector<std::string> children(const std::string& id) const {
    const std::uint32_t index = job_index(id);
    std::vector<std::string> out;
    out.reserve(graph().child_count(index));
    for_each_child(index, [&](std::uint32_t h) { out.emplace_back(ids().name(h)); });
    return out;
  }
  /// Kahn topological order by id; throws WorkflowError on a cycle.
  [[nodiscard]] std::vector<std::string> topological_order() const {
    const auto indices = topological_order_indices();
    std::vector<std::string> order;
    order.reserve(indices.size());
    for (const std::uint32_t h : indices) order.emplace_back(ids().name(h));
    return order;
  }

 protected:
  /// Interns `job.id` and appends the job; returns its dense handle
  /// (== position in jobs()). Throws InvalidArgument on an empty or
  /// duplicate id.
  std::uint32_t append(Job job) {
    WorkflowTopology& topology = own_topology();
    if (job.id.empty()) throw common::InvalidArgument("job id must not be empty");
    if (topology.ids.contains(job.id)) {
      throw common::InvalidArgument("duplicate job id: " + job.id);
    }
    const std::uint32_t handle = topology.ids.intern(job.id);  // == jobs_.size(): dense
    jobs_.push_back(std::move(job));
    topology.graph.add_node();
    return handle;
  }

  /// The checks every edge passes: both handles exist (InvalidArgument)
  /// and differ (WorkflowError).
  void check_edge(std::uint32_t parent, std::uint32_t child) const {
    if (parent >= jobs_.size()) {
      throw common::InvalidArgument("unknown parent handle: " + std::to_string(parent));
    }
    if (child >= jobs_.size()) {
      throw common::InvalidArgument("unknown child handle: " + std::to_string(child));
    }
    if (parent == child) {
      throw common::WorkflowError("self-dependency on " + jobs_[parent].id);
    }
  }

  void check_handle(std::uint32_t index) const {
    if (index >= jobs_.size()) {
      throw common::InvalidArgument("unknown job handle: " + std::to_string(index));
    }
  }

  /// A workflow named `name` that shares `other`'s topology block and
  /// copies its job records.
  WorkflowBase(const WorkflowBase& other, std::string name)
      : name_(std::move(name)), jobs_(other.jobs_), topology_(other.topology_) {}

  /// The topology block for a structural edit. Throws InvalidArgument
  /// while another workflow shares it.
  WorkflowTopology& own_topology() {
    if (topology_.use_count() > 1) {
      throw common::InvalidArgument(common::cat(
          {"workflow ", name_, ": its topology is shared, structural edits are closed"}));
    }
    return *topology_;
  }

  std::string name_;
  std::vector<Job> jobs_;
  std::shared_ptr<WorkflowTopology> topology_;
};

}  // namespace pga::wms
