#include "waas/fleet.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "data/locality.hpp"
#include "data/staging_service.hpp"
#include "data/storage_events.hpp"
#include "data/transfer_manager.hpp"
#include "wms/exec_service.hpp"
#include "workload/generator.hpp"

namespace pga::waas {

namespace {

constexpr double kEps = 1e-9;
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kNoEngine = std::numeric_limits<std::uint64_t>::max();

// Salts for folding independent sub-streams out of the one fleet seed.
constexpr std::uint64_t kCampusSalt = 0x43414d5055530001ULL;
constexpr std::uint64_t kOsgSalt = 0x4f53470000000002ULL;
constexpr std::uint64_t kTransferSalt = 0x5452414e53460003ULL;
constexpr std::uint64_t kChaosSalt = 0x4348414f53000004ULL;
constexpr std::uint64_t kBackoffSalt = 0x4241434b4f460005ULL;

/// A set of admission sequence numbers as a bitmap. insert, erase and
/// next are a few word operations: next() scans from its argument, and
/// words below the lowest member are skipped, so a walk in admission order
/// pays per member it reaches, not per engine ever admitted.
class SeqSet {
 public:
  void insert(std::uint64_t seq) {
    const std::size_t word = seq >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= bit(seq);
    low_ = std::min(low_, word);
  }
  void erase(std::uint64_t seq) {
    const std::size_t word = seq >> 6;
    if (word >= words_.size()) return;
    words_[word] &= ~bit(seq);
    while (low_ < words_.size() && words_[low_] == 0) ++low_;
  }
  /// The smallest member >= `from`, or kNoEngine.
  [[nodiscard]] std::uint64_t next(std::uint64_t from) const {
    std::size_t word = std::max<std::size_t>(from >> 6, low_);
    if (word >= words_.size()) return kNoEngine;
    std::uint64_t bits = words_[word];
    if (word == from >> 6) bits &= ~std::uint64_t{0} << (from & 63);
    while (bits == 0) {
      if (++word == words_.size()) return kNoEngine;
      bits = words_[word];
    }
    return (std::uint64_t{word} << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
  }

 private:
  static std::uint64_t bit(std::uint64_t seq) { return std::uint64_t{1} << (seq & 63); }

  std::vector<std::uint64_t> words_;
  std::size_t low_ = 0;  ///< no member lies in a word below this one
};

}  // namespace

/// The round's indexes over live engines, keyed by admission sequence
/// number so every walk runs in admission order. run() builds it; a round
/// costs O(engines that can act), never O(live engines).
struct FleetController::Rounds {
  SeqSet live;  ///< every live engine
  /// Engines to visit in the next first pass: completion deliveries (the
  /// services' wake hook), due deadlines, admissions and self-wakes.
  SeqSet wake;
  /// Per tenant, the engines with ready jobs (ready_count() > 0).
  std::vector<SeqSet> ready;
  /// (stored deadline, seq) for every engine with a finite deadline.
  std::set<std::pair<double, std::uint64_t>> deadlines;
  /// Engines whose step finished them this round, to reap.
  std::vector<std::uint64_t> finished;
  std::uint64_t visits = 0;  ///< can_progress evaluations
  std::uint64_t steps = 0;   ///< step_cooperative calls
};

/// One admitted workflow. Members are declaration-ordered so destruction
/// tears the engine down before the services it references, and the
/// services before the catalog/workflow they reference.
struct FleetController::Active {
  std::uint64_t seq = 0;     ///< admission order, the key of every index
  FleetController::Rounds* rounds = nullptr;
  std::size_t index = 0;
  std::size_t tenant = 0;
  std::size_t platform = 0;  ///< 0 = campus, 1 = osg
  std::string platform_name;
  double arrival = 0;
  double admitted = 0;
  wms::ReplicaCatalog replicas;
  std::unique_ptr<wms::ConcreteWorkflow> workflow;
  std::unique_ptr<wms::SimService> sim_service;
  std::unique_ptr<data::StagingService> staging;
  std::unique_ptr<wms::FaultyService> faulty;
  std::unique_ptr<wms::EngineInstance> engine;
  /// engine->next_deadline() as of admission or the engine's last step, as
  /// filed in Rounds::deadlines; it only changes inside a step, so the index
  /// stays exact and quiet rounds fence on its first entry.
  double deadline = std::numeric_limits<double>::infinity();
};

FleetController::FleetController(sim::EventQueue& queue, FleetOptions options)
    : queue_(queue),
      options_(std::move(options)),
      telemetry_(options_.tenants) {
  weights_ = options_.tenant_weights;
  if (weights_.empty()) weights_.assign(options_.tenants, 1.0);
  if (weights_.size() != options_.tenants) {
    throw common::InvalidArgument(
        "fleet: tenant_weights must be empty or one per tenant");
  }
  for (const double weight : weights_) {
    if (!std::isfinite(weight) || weight <= 0) {
      throw common::InvalidArgument(
          "fleet: tenant weights must be positive and finite");
    }
  }
  if (options_.pump_batch == 0) {
    throw common::InvalidArgument("fleet: pump_batch must be >= 1");
  }

  auto campus_cfg = options_.campus;
  campus_cfg.seed = common::mix64(options_.seed ^ kCampusSalt);
  campus_ = std::make_unique<sim::CampusClusterPlatform>(queue_, campus_cfg);
  if (options_.dual_platform) {
    auto osg_cfg = options_.osg;
    osg_cfg.seed = common::mix64(options_.seed ^ kOsgSalt);
    osg_ = std::make_unique<sim::OsgPlatform>(queue_, osg_cfg);
  }
  if (options_.model_staging) {
    data::TransferConfig transfer_cfg;
    transfer_cfg.seed = common::mix64(options_.seed ^ kTransferSalt);
    transfers_ = std::make_unique<data::TransferManager>(queue_, transfer_cfg);
    data::add_site_elements(*transfers_, workload::generator_site_catalog(),
                            options_.transfer_slots);
    storage_bus_ = std::make_unique<data::StorageEventBus>(&queue_);
    transfers_->set_event_bus(storage_bus_.get());
  }
  if (options_.policy == data::kLocalityPolicyName && !options_.model_staging) {
    throw common::InvalidArgument(
        "fleet: the data-locality policy requires model_staging");
  }
  if (options_.reuse_resident && !options_.model_staging) {
    throw common::InvalidArgument("fleet: reuse_resident requires model_staging");
  }

  tenant_in_flight_.assign(options_.tenants, 0);
  tenant_active_.assign(options_.tenants, 0);
  platform_in_flight_.assign(2, 0);
}

FleetController::~FleetController() = default;

double FleetController::tenant_deficit(std::size_t tenant) const {
  // Weighted share pressure: live jobs plus one unit per live engine, so
  // simultaneous bursts admit round-robin even before any job submits.
  return static_cast<double>(tenant_in_flight_[tenant] + tenant_active_[tenant]) /
         weights_[tenant];
}

void FleetController::admit(const workload::WorkflowRequest& request) {
  // Placement: whichever platform carries fewer of the fleet's in-flight
  // jobs takes the workflow; ties go to the campus cluster (its queue is
  // the better-behaved of the two).
  std::size_t platform_index = 0;
  if (options_.dual_platform && platform_in_flight_[1] < platform_in_flight_[0]) {
    platform_index = 1;
  }

  auto active = std::make_unique<Active>();
  active->index = request.index;
  active->tenant = request.tenant;
  active->platform = platform_index;
  active->platform_name = platform_index == 0 ? "sandhills" : "osg";
  active->arrival = request.arrival_seconds;
  active->admitted = queue_.now();

  // The chosen site's plan of this topology, planned on its first
  // request and shared since; only this request's costs are drawn.
  workload::PlannedRequest planned = topologies_.plan(request.spec, active->platform_name);
  active->replicas = std::move(planned.replicas);
  active->workflow = std::make_unique<wms::ConcreteWorkflow>(std::move(planned.workflow));

  // Service stack, innermost out: SimService on the placed platform, then
  // optional shared-bandwidth staging, then optional per-request chaos.
  sim::ExecutionPlatform& platform =
      platform_index == 0 ? static_cast<sim::ExecutionPlatform&>(*campus_)
                          : static_cast<sim::ExecutionPlatform&>(*osg_);
  active->sim_service = std::make_unique<wms::SimService>(queue_, platform);
  wms::ExecutionService* service = active->sim_service.get();
  if (options_.model_staging) {
    data::StagingConfig staging_cfg;
    staging_cfg.execution_site = active->platform_name;
    staging_cfg.reuse_resident = options_.reuse_resident;
    active->staging = std::make_unique<data::StagingService>(
        queue_, *service, *transfers_, active->replicas, staging_cfg);
    service = active->staging.get();
  }
  if (options_.chaos.has_value()) {
    wms::ChaosConfig chaos = *options_.chaos;
    chaos.seed = common::mix64(options_.seed ^ (kChaosSalt + request.index));
    active->faulty = std::make_unique<wms::FaultyService>(
        *service, wms::FaultPlan().chaos(chaos));
    service = active->faulty.get();
  }

  wms::EngineOptions engine_options = options_.engine;
  engine_options.status = nullptr;
  engine_options.rescue_path.reset();
  // reap() reads only scalars and the streamed digest: no roster, no log.
  engine_options.lean_report = true;
  // Throttling is fleet-level (per-round budgets), not per-engine.
  engine_options.max_jobs_in_flight = 0;
  engine_options.policy = options_.policy == data::kLocalityPolicyName
                              ? data::make_locality_policy(*transfers_)
                              : wms::make_policy(options_.policy);
  engine_options.observers = {&telemetry_};
  engine_options.backoff_seed =
      common::mix64(options_.seed ^ (kBackoffSalt + request.index));

  // record_admission also points the telemetry context at this tenant, so
  // the kRunStarted the constructor emits lands on the right counters.
  telemetry_.record_admission(active->tenant);
  active->engine = std::make_unique<wms::EngineInstance>(
      engine_options, *active->workflow, *service);
  active->seq = engines_.size();
  active->rounds = rounds_.get();
  // Completions delivered anywhere in the stack wake this engine.
  service->set_wake_hook(wms::WakeHook{
      [](void* context) {
        const Active& woken = *static_cast<const Active*>(context);
        woken.rounds->wake.insert(woken.seq);
      },
      active.get()});
  rounds_->live.insert(active->seq);
  rounds_->wake.insert(active->seq);
  reindex(*active);
  ++tenant_active_[active->tenant];
  ++live_;
  engines_.push_back(std::move(active));
}

void FleetController::reindex(Active& active) {
  Rounds& rounds = *rounds_;
  if (active.engine->ready_count() > 0) {
    rounds.ready[active.tenant].insert(active.seq);
  } else {
    rounds.ready[active.tenant].erase(active.seq);
  }
  const double deadline = active.engine->next_deadline();
  if (deadline != active.deadline) {
    if (!std::isinf(active.deadline)) rounds.deadlines.erase({active.deadline, active.seq});
    if (!std::isinf(deadline)) rounds.deadlines.emplace(deadline, active.seq);
    active.deadline = deadline;
  }
}

void FleetController::reap(std::uint64_t seq, std::vector<WorkflowOutcome>& outcomes) {
  Active& active = *engines_[seq];
  Rounds& rounds = *rounds_;
  rounds.live.erase(seq);
  rounds.wake.erase(seq);
  rounds.ready[active.tenant].erase(seq);
  if (!std::isinf(active.deadline)) rounds.deadlines.erase({active.deadline, seq});
  telemetry_.set_tenant(active.tenant);
  wms::RunReport report = active.engine->take_report();

  WorkflowOutcome outcome;
  outcome.index = active.index;
  outcome.tenant = active.tenant;
  outcome.platform = active.platform_name;
  outcome.arrival_seconds = active.arrival;
  outcome.admitted_seconds = active.admitted;
  outcome.finished_seconds = report.end_time;
  outcome.makespan_seconds = report.end_time - active.arrival;
  outcome.success = report.success;
  outcome.jobs = report.jobs_total;
  outcome.retries = report.total_retries;
  outcome.digest = report.jobstate_digest;
  telemetry_.record_workflow(active.tenant, outcome.makespan_seconds,
                             outcome.success);
  outcomes.push_back(std::move(outcome));

  --tenant_active_[active.tenant];
  --live_;
  engines_[seq].reset();
}

FleetResult FleetController::run(
    const std::vector<workload::WorkflowRequest>& requests,
    workload::RequestSource* source) {
  if (ran_) {
    throw common::InvalidArgument("FleetController::run called twice");
  }
  ran_ = true;
  rounds_ = std::make_unique<Rounds>();
  Rounds& rounds = *rounds_;
  rounds.ready.resize(options_.tenants);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].tenant >= options_.tenants) {
      throw common::InvalidArgument("fleet: request tenant out of range");
    }
    if (i > 0 && requests[i].arrival_seconds < requests[i - 1].arrival_seconds) {
      throw common::InvalidArgument(
          "fleet: requests must be sorted by arrival time");
    }
  }

  const std::uint64_t start_events = queue_.processed();
  const bool capped = options_.max_jobs_in_flight > 0;
  std::size_t next_arrival = 0;
  // Arrived but not yet admitted, in arrival order. Holds request values
  // (not stream indices) so statically-generated and source-synthesized
  // requests queue identically.
  std::vector<workload::WorkflowRequest> due;
  std::vector<WorkflowOutcome> outcomes;
  outcomes.reserve(requests.size());
  std::vector<std::size_t> tenant_budget(options_.tenants, 0);

  // Checked on entry so the admission scan never reads tenant_deficit out
  // of range (source-synthesized requests are not validated above).
  const auto enqueue = [&](workload::WorkflowRequest request) {
    if (request.tenant >= options_.tenants) {
      throw common::InvalidArgument("fleet: request tenant out of range");
    }
    due.push_back(std::move(request));
  };
  const auto admit_due = [&] {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival_seconds <= queue_.now() + kEps) {
      enqueue(requests[next_arrival++]);
    }
    if (source != nullptr) {
      for (auto& request : source->poll(queue_.now() + kEps)) {
        enqueue(std::move(request));
      }
    }
    while (!due.empty() && (options_.max_active_workflows == 0 ||
                            live_ < options_.max_active_workflows)) {
      // Weighted fair-share admission: the due request whose tenant has
      // the smallest deficit wins; the scan order keeps FIFO within ties.
      std::size_t best = 0;
      for (std::size_t i = 1; i < due.size(); ++i) {
        if (tenant_deficit(due[i].tenant) + kEps <
            tenant_deficit(due[best].tenant)) {
          best = i;
        }
      }
      const workload::WorkflowRequest pick = std::move(due[best]);
      due.erase(due.begin() + static_cast<std::ptrdiff_t>(best));
      admit(pick);
    }
  };
  // Whether a shared-queue event is due at exactly now(). Any poll runs
  // such events, and which engine runs them decides who sees a completion
  // this round, so while one is pending every engine steps.
  const auto event_due_now = [&] {
    const auto next = queue_.next_time();
    return next.has_value() && *next <= queue_.now();
  };

  // The fleet's unused job cap this round; the budgets split it by weight.
  std::size_t headroom = kUnlimited;
  const auto grant_for = [&](std::size_t tenant) {
    return capped ? std::min(tenant_budget[tenant], headroom) : kUnlimited;
  };

  // Steps one engine under `grant`, settles the in-flight ledgers and
  // re-indexes it. A stepped engine is woken for the next round: that
  // covers quiescence and output its service produced inside the step.
  const auto step_engine = [&](Active& active, std::size_t grant) {
    telemetry_.set_tenant(active.tenant);
    ++rounds.steps;
    const std::size_t before = active.engine->jobs_in_flight();
    const bool progress = active.engine->step_cooperative(grant);
    const std::size_t after = active.engine->jobs_in_flight();
    if (after >= before) {
      const std::size_t delta = after - before;
      tenant_in_flight_[active.tenant] += delta;
      platform_in_flight_[active.platform] += delta;
      if (capped) {
        tenant_budget[active.tenant] -=
            std::min(delta, tenant_budget[active.tenant]);
        headroom -= std::min(delta, headroom);
      }
    } else {
      const std::size_t delta = before - after;
      tenant_in_flight_[active.tenant] -= delta;
      platform_in_flight_[active.platform] -= delta;
      if (capped) headroom += delta;  // capacity freed this round
    }
    if (active.engine->is_done()) {
      rounds.finished.push_back(active.seq);
    } else {
      reindex(active);
      rounds.wake.insert(active.seq);
    }
    return progress;
  };
  // The first ready-index entry from `from` on among tenants that `admits`.
  const auto next_ready = [&](std::uint64_t from, auto admits) {
    std::uint64_t best = kNoEngine;
    for (std::size_t t = 0; t < options_.tenants; ++t) {
      if (admits(t)) best = std::min(best, rounds.ready[t].next(from));
    }
    return best;
  };

  while (true) {
    admit_due();
    if (live_ == 0 && due.empty() && next_arrival == requests.size()) {
      // Static stream drained and nothing running — but the source may
      // still owe future requests (e.g. a trigger firing with a delay).
      // Jump the clock to its earliest pending arrival and re-poll.
      const double pending =
          source != nullptr ? source->next_arrival()
                            : std::numeric_limits<double>::infinity();
      if (std::isinf(pending)) break;
      queue_.advance_to(std::max(queue_.now(), pending));
      continue;
    }

    // Per-round fair-share budgets: split the fleet cap across tenants
    // with live engines in proportion to weight; a tenant above its
    // target gets 0 and drains toward it (weighted deficit discipline).
    headroom = kUnlimited;
    if (capped) {
      double total_weight = 0;
      std::size_t total_in_flight = 0;
      for (std::size_t t = 0; t < options_.tenants; ++t) {
        if (tenant_active_[t] > 0) total_weight += weights_[t];
        total_in_flight += tenant_in_flight_[t];
      }
      headroom = options_.max_jobs_in_flight > total_in_flight
                     ? options_.max_jobs_in_flight - total_in_flight
                     : 0;
      for (std::size_t t = 0; t < options_.tenants; ++t) {
        if (tenant_active_[t] == 0 || total_weight <= 0) {
          tenant_budget[t] = 0;
          continue;
        }
        const auto target = static_cast<std::size_t>(std::max(
            1.0, std::floor(static_cast<double>(options_.max_jobs_in_flight) *
                            weights_[t] / total_weight)));
        tenant_budget[t] =
            target > tenant_in_flight_[t] ? target - tenant_in_flight_[t] : 0;
      }
    }
    // Deadlines due now (backoff release, attempt timeout, held
    // completion) wake their engines; the clock only moves between rounds.
    for (const auto& [deadline, seq] : rounds.deadlines) {
      if (deadline > queue_.now() + kEps) break;
      rounds.wake.insert(seq);
    }

    // Wake-driven pass in admission order: an engine is stepped only when
    // the step could change something — its own wake conditions
    // (EngineInstance::can_progress) or a queue event due now, which its
    // poll would run. Only woken engines and ready engines whose tenant
    // has a grant can pass that test, so the pass visits just those; while
    // an event is due it steps every engine in turn. An engine woken
    // during the pass is visited in it when it lies ahead of the cursor,
    // else next round — exactly what a walk over every engine would do.
    bool progress = false;
    for (std::uint64_t from = 0;;) {
      if (event_due_now()) {
        const std::uint64_t seq = rounds.live.next(from);
        if (seq == kNoEngine) break;
        from = seq + 1;
        rounds.wake.erase(seq);
        Active& active = *engines_[seq];
        progress |= step_engine(active, grant_for(active.tenant));
        continue;
      }
      const std::uint64_t seq =
          std::min(rounds.wake.next(from),
                   next_ready(from, [&](std::size_t t) { return grant_for(t) > 0; }));
      if (seq == kNoEngine) break;
      from = seq + 1;
      rounds.wake.erase(seq);
      Active& active = *engines_[seq];
      const std::size_t grant = grant_for(active.tenant);
      ++rounds.visits;
      if (!active.engine->can_progress(grant)) continue;
      progress |= step_engine(active, grant);
    }
    // Work-conserving second pass: leftover headroom goes to whoever has
    // ready jobs, weights notwithstanding — idle capacity helps no tenant.
    for (std::uint64_t from = 0; capped && headroom > 0;) {
      const std::uint64_t seq = next_ready(from, [](std::size_t) { return true; });
      if (seq == kNoEngine) break;
      from = seq + 1;
      progress |= step_engine(*engines_[seq], headroom);
    }
    std::sort(rounds.finished.begin(), rounds.finished.end());
    for (const std::uint64_t seq : rounds.finished) reap(seq, outcomes);
    rounds.finished.clear();
    if (progress) continue;

    // Quiet round: nobody could submit or consume. Advance the shared
    // timeline — but never past the earliest engine deadline (backoff
    // release / attempt timeout / held completion) or the next arrival.
    double fence = rounds.deadlines.empty() ? std::numeric_limits<double>::infinity()
                                            : rounds.deadlines.begin()->first;
    if (next_arrival < requests.size()) {
      fence = std::min(fence, requests[next_arrival].arrival_seconds);
    }
    if (source != nullptr) {
      fence = std::min(fence, source->next_arrival());
    }

    std::size_t pumped = 0;
    while (pumped < options_.pump_batch) {
      const auto next = queue_.next_time();
      if (!next.has_value() || *next > fence) break;
      queue_.step();
      ++pumped;
      if (queue_.processed() - start_events > options_.max_events) {
        throw common::SimulationError(
            "fleet event budget exhausted after " +
            std::to_string(queue_.processed() - start_events) + " events at t=" +
            std::to_string(queue_.now()));
      }
    }
    if (pumped > 0) continue;

    if (std::isinf(fence)) {
      // No events, no deadlines, no arrivals — yet engines are alive.
      throw common::SimulationError(
          "fleet deadlock: " + std::to_string(live_) +
          " engines waiting with no pending events at t=" +
          std::to_string(queue_.now()));
    }
    if (fence <= queue_.now() + kEps) {
      throw common::SimulationError("fleet stalled at t=" +
                                    std::to_string(queue_.now()));
    }
    queue_.advance_to(fence);
  }

  FleetResult result;
  result.outcomes = std::move(outcomes);
  result.workflows_completed = telemetry_.workflows_completed();
  result.workflows_succeeded = telemetry_.workflows_succeeded();
  result.peak_jobs_in_flight = telemetry_.peak_jobs_in_flight();
  result.events_processed = queue_.processed() - start_events;
  result.engine_events = telemetry_.engine_events();
  result.engine_visits = rounds.visits;
  result.engine_steps = rounds.steps;
  result.topologies_planned = topologies_.size();
  result.finished_at_seconds = queue_.now();
  result.p50_makespan_seconds = telemetry_.makespan_percentile(50);
  result.p99_makespan_seconds = telemetry_.makespan_percentile(99);
  result.tenants = telemetry_.tenants();
  std::uint64_t digest = common::kFnv1aOffset;
  for (const auto& outcome : result.outcomes) {
    digest = common::mix64(digest ^ outcome.digest);
  }
  result.digest = digest;
  return result;
}

std::string FleetResult::render() const {
  std::ostringstream os;
  os << "fleet: " << workflows_completed << " workflows ("
     << workflows_succeeded << " ok), peak " << peak_jobs_in_flight
     << " jobs in flight, " << events_processed << " events, finished t="
     << common::format_fixed(finished_at_seconds, 1) << " s\n";
  os << "makespan p50=" << common::format_fixed(p50_makespan_seconds, 1)
     << " s  p99=" << common::format_fixed(p99_makespan_seconds, 1) << " s\n";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantTotals& totals = tenants[t];
    os << "tenant " << t << ": " << totals.workflows_completed << "/"
       << totals.workflows_admitted << " workflows, " << totals.jobs_succeeded
       << " jobs ok, " << totals.jobs_failed << " failed\n";
  }
  return os.str();
}

}  // namespace pga::waas
