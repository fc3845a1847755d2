// Execution back-ends behind one interface.
//
// The DAGMan engine is written against ExecutionService only, so the same
// workflow runs (a) for real, on a thread pool over actual files, and
// (b) simulated, on the discrete-event platform models at paper scale.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "sim/platform.hpp"
#include "wms/planner.hpp"

namespace pga::wms {

/// One attempt at one concrete job, in the service's time base.
struct TaskAttempt {
  std::string job_id;
  /// Optional echo of ConcreteJob::index from the submitted job. When a
  /// service fills it, the engine verifies the name and skips the hash
  /// lookup that matching completions by job_id costs; 0xFFFFFFFFu
  /// (IdTable::kInvalid) means "not set, match by job_id".
  std::uint32_t job = 0xFFFFFFFFu;
  std::string transformation;
  bool success = false;
  std::string error;
  std::string node;
  double submit_time = 0;
  double end_time = 0;
  double wait_seconds = 0;     ///< "Waiting Time" (queue + match)
  double install_seconds = 0;  ///< "Download/Install Time"
  double exec_seconds = 0;     ///< "Kickstart Time" (partial on failure)
  bool install_cache_hit = false;  ///< software setup came from a node cache
  std::uint64_t transferred_bytes = 0;  ///< bytes moved by a staging attempt
  std::size_t transfer_attempts = 0;    ///< transfer tries incl. retries
};

/// Where a simulated service's platform or transfer callbacks deliver
/// finished attempts. An attempt can outlive its service (written off by an
/// engine timeout, then its workflow torn down), so a service destroyed
/// with attempts outstanding marks its inbox orphaned and hands it to the
/// event queue (sim::EventQueue::retain); late completions then only count
/// down `outstanding` and are dropped, so nothing accumulates there.
struct CompletionInbox {
  std::vector<TaskAttempt> completed;
  std::size_t outstanding = 0;  ///< submitted, callback not yet run
  bool orphaned = false;        ///< its service is gone
};

/// Completion-pump interface. The engine calls submit() for ready jobs and
/// wait() to collect finished attempts; implementations choose their own
/// notion of time (wall seconds or simulation seconds).
class ExecutionService {
 public:
  virtual ~ExecutionService() = default;

  /// Starts one attempt of `job`. Never blocks.
  virtual void submit(const ConcreteJob& job) = 0;

  /// Returns at least one completed attempt, blocking/advancing as needed.
  /// Returns empty only when no submitted attempt is outstanding.
  virtual std::vector<TaskAttempt> wait() = 0;

  /// Like wait(), but gives up after `timeout_seconds` of this service's
  /// time, returning whatever completed (possibly nothing). Services that
  /// control their own clock (the simulator) advance it up to the deadline
  /// even with nothing outstanding, so the engine can wait out attempt
  /// timeouts and retry backoffs. The default falls back to wait(), i.e.
  /// the deadline is advisory.
  virtual std::vector<TaskAttempt> wait_for(double timeout_seconds) {
    (void)timeout_seconds;
    return wait();
  }

  /// Non-blocking harvest: returns attempts that have already completed
  /// without advancing this service's clock past "now". The cooperative
  /// stepping path (EngineInstance::step_cooperative) uses this so an
  /// external driver — the WaaS fleet controller — keeps clock ownership.
  /// The default maps to wait_for(0), which every implementation treats as
  /// "deliver what is due at exactly the current time, then return".
  virtual std::vector<TaskAttempt> poll() { return wait_for(0); }

  /// Side-effect-free: whether poll() could return anything without
  /// running a queue event — a completion already delivered, or one held
  /// back and now due. False promises that, with no shared-queue event due
  /// at now(), poll() returns empty and changes nothing, which is what
  /// lets a cooperative driver skip the engine. The default (true) is the
  /// conservative answer for services that cannot tell.
  [[nodiscard]] virtual bool has_output() { return true; }

  /// Earliest future instant (in this service's time base) at which a
  /// poll() might yield something that no shared-event-queue event
  /// announces — e.g. a fault injector holding a delayed completion.
  /// Infinity (the default) means completions are purely event-driven.
  /// External clock owners fold this into their advance fence.
  [[nodiscard]] virtual double next_event_time() {
    return std::numeric_limits<double>::infinity();
  }

  /// Advisory hint: the scheduler blacklisted `node`; place future attempts
  /// elsewhere when possible. Default ignores it.
  virtual void avoid_node(const std::string& node) { (void)node; }

  /// Current time in this service's time base (seconds).
  [[nodiscard]] virtual double now() = 0;

  /// Human-readable back-end label.
  [[nodiscard]] virtual std::string label() const = 0;
};

/// Real execution: jobs run as C++ callables on a bounded thread pool.
///
/// The `runner` receives each ConcreteJob and performs its actual work
/// (reading/writing workspace files). Thrown exceptions become failed
/// attempts — a failing job never takes down the engine, which decides
/// about retries. Wall-clock timings (queueing delay, run time) feed the
/// same statistics as the simulator.
class LocalService final : public ExecutionService {
 public:
  using JobRunner = std::function<void(const ConcreteJob&)>;

  /// `slots`: concurrent workers. `runner`: executes one job.
  LocalService(std::size_t slots, JobRunner runner);

  void submit(const ConcreteJob& job) override;
  std::vector<TaskAttempt> wait() override;
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override;
  double now() override;
  [[nodiscard]] std::string label() const override { return "local"; }

 private:
  /// Moves everything accumulated in completed_ out. Caller holds mutex_.
  std::vector<TaskAttempt> drain_locked();

  JobRunner runner_;
  common::Stopwatch clock_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<TaskAttempt> completed_;
  std::size_t outstanding_ = 0;

  // Declared last on purpose: the pool's destructor drains the queue and
  // joins its workers, and workers touch mutex_/cv_ when a job completes,
  // so the pool must be destroyed before (i.e. declared after) them.
  common::ThreadPool pool_;
};

/// Simulated execution on a platform model; time is the event queue's.
class SimService final : public ExecutionService {
 public:
  /// `queue` must outlive the service and be the platform's queue.
  SimService(sim::EventQueue& queue, sim::ExecutionPlatform& platform);
  ~SimService() override;
  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  void submit(const ConcreteJob& job) override;
  std::vector<TaskAttempt> wait() override;
  std::vector<TaskAttempt> wait_for(double timeout_seconds) override;
  [[nodiscard]] bool has_output() override { return !inbox_->completed.empty(); }
  void avoid_node(const std::string& node) override { platform_.avoid_node(node); }
  double now() override;
  [[nodiscard]] std::string label() const override { return platform_.name(); }

 private:
  /// Steps the event queue until a completion lands. With a deadline, stops
  /// once the next event lies past it and burns the remaining simulated
  /// time; without one, throws on deadlock (outstanding jobs, no events).
  void pump(std::optional<double> deadline);
  /// Moves everything accumulated in the inbox out.
  std::vector<TaskAttempt> take_completed();

  sim::EventQueue& queue_;
  sim::ExecutionPlatform& platform_;
  std::unique_ptr<CompletionInbox> inbox_ = std::make_unique<CompletionInbox>();
};

}  // namespace pga::wms
