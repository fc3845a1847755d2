// Workflow-as-a-Service fleet controller (Hilman et al., PAPERS.md).
//
// Everything below PR 7 ran ONE workflow per engine per clock. This module
// inverts that: a FleetController owns one sim::EventQueue (the shared
// timeline), stands up BOTH paper platforms on it — the Sandhills campus
// cluster and the OSG pool, simultaneously, the choice the paper could
// only make per-run — and drives an arrival stream of WorkflowRequests
// (workload::generate_arrivals) through many concurrently-executing
// wms::EngineInstance cores:
//
//   * admission: requests wait in an arrival queue; when a slot opens the
//     controller admits the request whose tenant has the smallest
//     weighted deficit (jobs-in-flight / weight), i.e. weighted fair
//     share across tenants, FIFO within a tenant;
//   * placement: each admitted workflow goes to whichever platform
//     currently carries fewer of the fleet's in-flight jobs (ties go to
//     the campus cluster). Admission plans once per topology: the
//     controller's workload::TopologyCache plans a (shape, size,
//     diamond_stages, fan_arity_step, edge_patterns, site) key on its
//     first request, and every later request of the key shares that plan's
//     id table and graph and only draws its own costs and replica sizes;
//   * execution: engines are stepped cooperatively — step_cooperative()
//     never blocks, and a round steps an engine only when it can make
//     progress (EngineInstance::can_progress) or a queue event is due at
//     the current instant, which its poll would run; skipping the others
//     changes no byte. A round never scans the live engines: it walks, in
//     admission order, a wake set (filled by the services' completion
//     wake hook, due deadlines, admissions and each stepped engine), a
//     per-tenant ready index and a deadline index, so it costs O(engines
//     that can act). The controller owns the clock and only advances it to
//     the earliest engine deadline (the deadline index's first entry) /
//     arrival / platform event, so 10k interleaved workflows stay exactly
//     as deterministic as one;
//   * fair-share submission: a fleet-wide jobs-in-flight cap is split
//     into per-tenant budgets proportional to weight each scheduling
//     round, with a second work-conserving pass granting leftover
//     headroom to whoever has ready jobs;
//   * telemetry: one FleetTelemetry observer sees every engine event;
//     finished workflows fold into p50/p99 makespan and per-tenant
//     throughput.
//
// Optional layers compose exactly as they do for single runs: one shared
// data::TransferManager gives every workflow's staging jobs genuine
// bandwidth contention, and a ChaosConfig wraps each engine's service in
// a wms::FaultyService with a per-request folded seed (common::mix64).
// Two runs with the same options and requests are byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/osg.hpp"
#include "waas/telemetry.hpp"
#include "wms/engine.hpp"
#include "wms/fault_injection.hpp"
#include "workload/arrival.hpp"
#include "workload/topology_cache.hpp"

namespace pga::data {
class TransferManager;
class StagingService;
class StorageEventBus;
}  // namespace pga::data

namespace pga::waas {

/// Fleet knobs.
struct FleetOptions {
  /// Master seed: platform streams, chaos streams and backoff streams are
  /// folded from it (common::mix64) so the whole fleet replays from one
  /// number.
  std::uint64_t seed = 42;
  /// Tenants sharing the fleet. Requests must carry tenant < tenants.
  std::size_t tenants = 1;
  /// Fair-share weights, one per tenant; empty = equal weights. Must be
  /// positive and finite when given.
  std::vector<double> tenant_weights = {};
  /// Concurrently-admitted workflows (engines alive at once). 0 = no cap.
  std::size_t max_active_workflows = 0;
  /// Fleet-wide jobs-in-flight cap split across tenants by weight.
  /// 0 = no cap (every engine submits everything ready).
  std::size_t max_jobs_in_flight = 0;
  /// Scheduling policy per engine (wms::make_policy name, or
  /// "data-locality" — which requires model_staging and ranks ready jobs
  /// by bytes already resident on their site's storage element). Each
  /// engine gets its own instance — one policy object must not serve two
  /// concurrently-stepping engines.
  std::string policy = "fifo";
  /// Per-engine options template: retries, backoff, attempt timeout,
  /// blacklist. `policy`, `observers`, `status`, `rescue_path`,
  /// `max_jobs_in_flight`, `backoff_seed` and `lean_report` fields are
  /// controller-owned and ignored here.
  wms::EngineOptions engine = {};
  /// Platform sizing. Seeds are overridden from `seed`; slots are the
  /// elastic-provisioning knob (the paper's fixed 512/150 split is tiny
  /// against a 10k-workflow fleet — raise them to model elastic pools).
  sim::CampusClusterConfig campus = {};
  sim::OsgConfig osg = {};
  /// false = campus only (single-platform fleet, mostly for tests).
  bool dual_platform = true;
  /// Model stage-in/out through one shared TransferManager (bandwidth
  /// contention across the whole fleet) instead of flat-cost jobs.
  bool model_staging = false;
  std::size_t transfer_slots = 4;  ///< per storage element when staging
  /// Stage-in files already resident on the destination element are
  /// reused (no transfer) instead of re-copied. Needs model_staging.
  bool reuse_resident = false;
  /// When set, every engine's service is wrapped in a FaultyService in
  /// chaos mode with a per-request folded seed.
  std::optional<wms::ChaosConfig> chaos = {};
  /// Runaway guard across the whole fleet run (queue events).
  std::uint64_t max_events = 1'000'000'000;
  /// Events pumped per quiet round before the next round; bounds how
  /// stale budgets can get, not correctness.
  std::size_t pump_batch = 1024;
};

/// One finished workflow, in completion order.
struct WorkflowOutcome {
  std::size_t index = 0;   ///< WorkflowRequest::index
  std::size_t tenant = 0;
  std::string platform;    ///< "sandhills" or "osg"
  double arrival_seconds = 0;
  double admitted_seconds = 0;   ///< left the arrival queue
  double finished_seconds = 0;
  /// finished - arrival: queueing + execution, the WaaS-facing latency.
  double makespan_seconds = 0;
  bool success = false;
  std::size_t jobs = 0;
  std::size_t retries = 0;
  /// FNV-1a over the jobstate log — the determinism fingerprint double-run
  /// tests compare.
  std::uint64_t digest = 0;
};

/// Everything a fleet run produced.
struct FleetResult {
  std::vector<WorkflowOutcome> outcomes;  ///< completion order
  std::size_t workflows_completed = 0;
  std::size_t workflows_succeeded = 0;
  std::size_t peak_jobs_in_flight = 0;
  std::uint64_t events_processed = 0;  ///< queue events this run consumed
  std::size_t engine_events = 0;       ///< EngineEvents across all engines
  /// Round work: can_progress evaluations and step_cooperative calls. A
  /// round visits only engines that were woken or hold ready jobs under a
  /// grant, so visits stay within a small multiple of steps however many
  /// engines are alive.
  std::uint64_t engine_visits = 0;
  std::uint64_t engine_steps = 0;
  /// Distinct (topology, site) keys admission planned; every other
  /// admission reused one of those plans.
  std::size_t topologies_planned = 0;
  double finished_at_seconds = 0;      ///< clock when the last engine drained
  double p50_makespan_seconds = 0;
  double p99_makespan_seconds = 0;
  std::vector<TenantTotals> tenants;
  /// Order-sensitive fold of the per-workflow digests: one number that
  /// pins the entire fleet execution.
  std::uint64_t digest = 0;

  /// Human-readable summary table.
  [[nodiscard]] std::string render() const;
};

/// Drives a request stream to completion on one shared clock.
class FleetController {
 public:
  /// `queue` is the fleet's timeline; it must outlive the controller and
  /// start empty. Throws InvalidArgument on bad options (weights, tenant
  /// table).
  FleetController(sim::EventQueue& queue, FleetOptions options);
  ~FleetController();

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Runs every request to completion and returns the aggregate result.
  /// Requests must be sorted by arrival_seconds (generate_arrivals output
  /// is) and carry tenant < options.tenants. Call once per controller.
  ///
  /// `source`, when given, is polled every admission round for
  /// dynamically-synthesized requests (the trigger subsystem's feed);
  /// the run only ends once the static stream, the source and every
  /// engine have drained. Source requests join the same weighted
  /// fair-share admission queue as static ones.
  FleetResult run(const std::vector<workload::WorkflowRequest>& requests,
                  workload::RequestSource* source = nullptr);

  /// The storage-event stream of the fleet's shared TransferManager
  /// (nullptr unless model_staging). Subscribe observers — e.g. a
  /// trigger::TriggerEngine — before run().
  [[nodiscard]] data::StorageEventBus* storage_bus() const {
    return storage_bus_.get();
  }

 private:
  struct Active;  // one admitted workflow: plan + services + engine
  struct Rounds;  // run()'s wake, ready and deadline indexes

  void admit(const workload::WorkflowRequest& request);
  [[nodiscard]] double tenant_deficit(std::size_t tenant) const;
  /// Brings `active`'s ready-index and deadline-index entries up to date
  /// after its engine was constructed or stepped.
  void reindex(Active& active);
  void reap(std::uint64_t seq, std::vector<WorkflowOutcome>& outcomes);

  sim::EventQueue& queue_;
  FleetOptions options_;
  std::vector<double> weights_;
  FleetTelemetry telemetry_;

  std::unique_ptr<sim::CampusClusterPlatform> campus_;
  std::unique_ptr<sim::OsgPlatform> osg_;
  std::unique_ptr<data::TransferManager> transfers_;
  std::unique_ptr<data::StorageEventBus> storage_bus_;
  /// Planned topologies by key, shared by the workflows admitted from them.
  workload::TopologyCache topologies_;

  /// Admitted engines by admission sequence number; a reaped engine
  /// leaves its slot empty.
  std::vector<std::unique_ptr<Active>> engines_;
  std::size_t live_ = 0;            ///< engines admitted and not yet reaped
  std::unique_ptr<Rounds> rounds_;  ///< built by run()
  std::vector<std::size_t> tenant_in_flight_;     ///< live jobs per tenant
  std::vector<std::size_t> tenant_active_;        ///< live engines per tenant
  std::vector<std::size_t> platform_in_flight_;   ///< [0]=campus, [1]=osg
  bool ran_ = false;
};

}  // namespace pga::waas
