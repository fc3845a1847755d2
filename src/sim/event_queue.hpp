// Discrete-event simulation core: a time-ordered event queue and clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace pga::sim {

/// The simulation executive. Events are (time, action) pairs; step() pops
/// the earliest event, advances the clock to its time, and runs it.
/// Simultaneous events run in scheduling (FIFO) order, which makes every
/// simulation fully deterministic.
///
/// Ownership contract: the queue is the *shared timeline*, owned by the
/// caller, never by a platform or engine. Any number of platforms and
/// engine instances may schedule onto one queue and interleave on its
/// clock — the WaaS fleet controller runs thousands of workflows this way.
/// Whoever owns the queue owns the clock: only the owner (or a service it
/// delegates to, bounded by the engines' next_deadline()) may advance it.
///
/// Storage is a binary heap on a plain vector (push_heap/pop_heap) rather
/// than std::priority_queue so callers running million-event workflows can
/// reserve() capacity up front instead of reallocating mid-heap.
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute simulation time `time` (>= now()).
  /// Throws InvalidArgument for events in the past.
  void schedule(double time, Action action);

  /// Schedules `action` `delay` seconds from now.
  void schedule_in(double delay, Action action) { schedule(now_ + delay, std::move(action)); }

  /// Runs the earliest pending event. Returns false when the queue is empty.
  bool step();

  /// Time of the earliest pending event, or nothing when the queue is empty.
  [[nodiscard]] std::optional<double> next_time() const;

  /// Advances the clock toward `time` without running anything. The clock
  /// never moves backwards and never passes the earliest pending event, so
  /// the call is always safe; it lets a service burn idle simulated time
  /// (e.g. while waiting out an attempt timeout with nothing scheduled).
  void advance_to(double time);

  /// Runs events until the queue drains. `max_events` is a runaway guard:
  /// exceeding it with events still pending throws common::SimulationError
  /// (a silent truncation here used to masquerade as a finished run).
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = 100'000'000);

  /// Keeps `object` alive as long as the queue. For state that pending
  /// events still write into after its owner is gone: a service torn down
  /// while its attempts keep running on a shared platform hands its inbox
  /// here, so their completions land in memory that still exists.
  void retain(std::shared_ptr<void> object) { retained_.push_back(std::move(object)); }

  /// Pre-sizes event storage; one allocation for a known-scale run.
  void reserve(std::size_t events) { events_.reserve(events); }

  /// Current simulation time (seconds).
  [[nodiscard]] double now() const { return now_; }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }

  /// Lifetime count of events run via step() (and thus run()). Fleet-scale
  /// drivers use it as a cheap progress/cost meter across many engines
  /// sharing the queue, and benches report it instead of re-counting.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  struct Event {
    double time;
    std::uint64_t sequence;  // FIFO tiebreak
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  double now_ = 0;
  std::uint64_t sequence_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> events_;  ///< binary min-heap under Later
  std::vector<std::shared_ptr<void>> retained_;  ///< see retain()
};

}  // namespace pga::sim
