#include "wms/fault_injection.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace pga::wms {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

// -------------------------------------------------------------- FaultPlan

FaultPlan& FaultPlan::fail(const std::string& job, int attempt,
                           const std::string& error, const std::string& node) {
  if (attempt < 0) throw common::InvalidArgument("FaultPlan: attempt must be >= 0");
  directives_.push_back(FaultDirective{job, attempt, FaultAction::kFail, error, 0,
                                       node.empty() ? "injected" : node});
  return *this;
}

FaultPlan& FaultPlan::fail_first(const std::string& job, int k,
                                 const std::string& error, const std::string& node) {
  if (k < 0) throw common::InvalidArgument("FaultPlan: k must be >= 0");
  for (int attempt = 1; attempt <= k; ++attempt) fail(job, attempt, error, node);
  return *this;
}

FaultPlan& FaultPlan::always_fail(const std::string& job, const std::string& error,
                                  const std::string& node) {
  return fail(job, 0, error, node);
}

FaultPlan& FaultPlan::hang(const std::string& job, int attempt) {
  if (attempt < 0) throw common::InvalidArgument("FaultPlan: attempt must be >= 0");
  directives_.push_back(FaultDirective{job, attempt, FaultAction::kHang, "", 0, ""});
  return *this;
}

FaultPlan& FaultPlan::delay(const std::string& job, int attempt, double seconds) {
  if (attempt < 0) throw common::InvalidArgument("FaultPlan: attempt must be >= 0");
  if (seconds < 0) throw common::InvalidArgument("FaultPlan: delay must be >= 0");
  directives_.push_back(
      FaultDirective{job, attempt, FaultAction::kDelay, "", seconds, ""});
  return *this;
}

FaultPlan& FaultPlan::corrupt_node(const std::string& job, int attempt,
                                   const std::string& node) {
  if (attempt < 0) throw common::InvalidArgument("FaultPlan: attempt must be >= 0");
  if (node.empty()) throw common::InvalidArgument("FaultPlan: corrupt node is empty");
  directives_.push_back(
      FaultDirective{job, attempt, FaultAction::kCorruptNode, "", 0, node});
  return *this;
}

FaultPlan& FaultPlan::chaos(const ChaosConfig& config) {
  const double total = config.fail_probability + config.hang_probability +
                       config.delay_probability + config.corrupt_probability;
  if (config.fail_probability < 0 || config.hang_probability < 0 ||
      config.delay_probability < 0 || config.corrupt_probability < 0 ||
      total > 1.0 + kEps) {
    throw common::InvalidArgument(
        "ChaosConfig: probabilities must be >= 0 and sum to <= 1");
  }
  if (config.max_delay_seconds < 0) {
    throw common::InvalidArgument("ChaosConfig: max_delay_seconds must be >= 0");
  }
  chaos_ = config;
  return *this;
}

std::vector<const FaultDirective*> FaultPlan::match(const std::string& job,
                                                    int attempt) const {
  std::vector<const FaultDirective*> out;
  for (const auto& d : directives_) {
    if (d.job_id == job && (d.attempt == 0 || d.attempt == attempt)) {
      out.push_back(&d);
    }
  }
  return out;
}

// ---------------------------------------------------------- FaultyService

FaultyService::FaultyService(ExecutionService& inner, FaultPlan plan)
    : inner_(inner),
      plan_(std::move(plan)),
      rng_(plan_.chaos_config() ? plan_.chaos_config()->seed : 0) {}

int FaultyService::attempts_seen(const std::string& job) const {
  const auto it = attempt_counts_.find(job);
  return it == attempt_counts_.end() ? 0 : it->second;
}

void FaultyService::submit(const ConcreteJob& job) {
  const int attempt = ++attempt_counts_[job.id];
  const auto matches = plan_.match(job.id, attempt);

  // Resolve the scripted directives into one primary action plus rewrites.
  bool do_hang = false;
  const FaultDirective* do_fail = nullptr;
  Post post;
  for (const FaultDirective* d : matches) {
    switch (d->action) {
      case FaultAction::kHang: do_hang = true; break;
      case FaultAction::kFail:
        if (do_fail == nullptr) do_fail = d;
        break;
      case FaultAction::kDelay: post.delay_seconds += d->delay_seconds; break;
      case FaultAction::kCorruptNode: post.corrupt_node = d->node; break;
    }
  }

  // Chaos mode fills in when nothing is scripted for this submission. One
  // uniform draw per submission keeps the stream a pure function of
  // (seed, submission order).
  std::string chaos_fail_error;
  if (matches.empty() && plan_.chaos_config()) {
    const ChaosConfig& c = *plan_.chaos_config();
    const double u = rng_.uniform();
    if (u < c.fail_probability) {
      chaos_fail_error = "chaos failure";
    } else if (u < c.fail_probability + c.hang_probability) {
      do_hang = true;
    } else if (u < c.fail_probability + c.hang_probability + c.delay_probability) {
      post.delay_seconds = rng_.uniform(0.0, c.max_delay_seconds);
    } else if (u < c.fail_probability + c.hang_probability + c.delay_probability +
                       c.corrupt_probability) {
      post.corrupt_node = "chaos-node-" + std::to_string(rng_.below(4));
    }
  }

  if (do_hang) {
    ++injected_hangs_;
    ++hung_outstanding_;
    return;  // swallowed: the inner service never sees this attempt
  }
  if (do_fail != nullptr || !chaos_fail_error.empty()) {
    ++injected_failures_;
    TaskAttempt failed;
    failed.job_id = job.id;
    failed.transformation = job.transformation;
    failed.success = false;
    failed.error = do_fail != nullptr ? do_fail->error : chaos_fail_error;
    failed.node = !post.corrupt_node.empty() ? post.corrupt_node
                  : do_fail != nullptr       ? do_fail->node
                                             : "chaos-node";
    failed.submit_time = inner_.now();
    failed.end_time = failed.submit_time;
    due_.push_back(std::move(failed));
    return;
  }

  if (post.delay_seconds > 0 || !post.corrupt_node.empty()) {
    post_[job.id] = post;
  }
  inner_.submit(job);
}

bool FaultyService::apply_post(TaskAttempt& attempt) {
  const auto it = post_.find(attempt.job_id);
  if (it == post_.end()) return false;
  const Post post = it->second;
  post_.erase(it);
  if (!post.corrupt_node.empty()) {
    ++corrupted_nodes_;
    attempt.node = post.corrupt_node;
  }
  if (post.delay_seconds > 0) {
    ++injected_delays_;
    // Slow-node semantics: the node took delay_seconds longer to finish, so
    // the attempt's execution time and end time stretch, and delivery is
    // withheld until the service clock reaches the stretched end.
    attempt.exec_seconds += post.delay_seconds;
    attempt.end_time += post.delay_seconds;
    held_.push_back(Held{std::move(attempt), inner_.now() + post.delay_seconds});
    return true;
  }
  return false;
}

double FaultyService::earliest_release() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& held : held_) earliest = std::min(earliest, held.release_time);
  return earliest;
}

std::vector<TaskAttempt> FaultyService::take_due() {
  const double now = inner_.now();
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->release_time <= now + kEps) {
      due_.push_back(std::move(it->attempt));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<TaskAttempt> out(std::make_move_iterator(due_.begin()),
                               std::make_move_iterator(due_.end()));
  due_.clear();
  return out;
}

std::vector<TaskAttempt> FaultyService::wait() {
  while (true) {
    auto out = take_due();
    if (!out.empty()) return out;
    if (held_.empty()) {
      // Nothing synthesized or parked: defer to the inner service. An empty
      // batch means the inner service is idle — if attempts were swallowed
      // (hangs), only an engine attempt timeout can make progress, so
      // return empty rather than block forever.
      auto batch = inner_.wait();
      if (batch.empty()) return {};
      for (auto& attempt : batch) {
        if (!apply_post(attempt)) due_.push_back(std::move(attempt));
      }
    } else {
      // Burn inner time until the earliest delayed completion is due.
      const double target = earliest_release();
      auto batch = inner_.wait_for(std::max(0.0, target - inner_.now()));
      for (auto& attempt : batch) {
        if (!apply_post(attempt)) due_.push_back(std::move(attempt));
      }
      if (batch.empty() && inner_.now() + kEps < target) {
        // The inner clock cannot advance (a bare stub): release by fiat so
        // callers are never wedged by an injected delay.
        for (auto& held : held_) held.release_time = inner_.now();
      }
    }
  }
}

std::vector<TaskAttempt> FaultyService::poll() {
  auto batch = inner_.poll();
  for (auto& attempt : batch) {
    if (!apply_post(attempt)) due_.push_back(std::move(attempt));
  }
  return take_due();
}

bool FaultyService::has_output() {
  // The same release test take_due() applies.
  return !due_.empty() || inner_.has_output() ||
         (!held_.empty() && earliest_release() <= inner_.now() + kEps);
}

std::vector<TaskAttempt> FaultyService::wait_for(double timeout_seconds) {
  const double deadline = inner_.now() + std::max(0.0, timeout_seconds);
  while (true) {
    auto out = take_due();
    if (!out.empty()) return out;
    const double remaining = deadline - inner_.now();
    if (remaining <= kEps) return {};
    double horizon = remaining;
    if (!held_.empty()) {
      horizon = std::min(horizon, std::max(0.0, earliest_release() - inner_.now()));
    }
    const double before = inner_.now();
    auto batch = inner_.wait_for(horizon);
    for (auto& attempt : batch) {
      if (!apply_post(attempt)) due_.push_back(std::move(attempt));
    }
    if (batch.empty() && inner_.now() <= before + kEps) {
      // No completions and no clock progress: the inner service cannot burn
      // time. Release any parked completions by fiat to stay live, else
      // report the (advisory) timeout expired.
      if (held_.empty()) return {};
      for (auto& held : held_) held.release_time = inner_.now();
    }
  }
}

}  // namespace pga::wms
