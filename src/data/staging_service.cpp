#include "data/staging_service.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pga::data {

StagingService::StagingService(sim::EventQueue& queue, wms::ExecutionService& inner,
                               TransferManager& transfers,
                               const wms::ReplicaCatalog& replicas,
                               StagingConfig config)
    : queue_(queue),
      inner_(inner),
      transfers_(transfers),
      replicas_(replicas),
      config_(std::move(config)) {
  if (config_.submit_site.empty()) {
    throw common::InvalidArgument("StagingService: empty submit_site");
  }
  if (config_.execution_site.empty()) {
    throw common::InvalidArgument("StagingService: empty execution_site");
  }
}

StagingService::~StagingService() {
  if (inbox_->outstanding == 0) return;
  inbox_->orphaned = true;
  queue_.retain(std::move(inbox_));
}

void StagingService::submit(const wms::ConcreteJob& job) {
  const bool staging_job = (job.kind == wms::JobKind::kStageIn ||
                            job.kind == wms::JobKind::kStageOut) &&
                           !job.args.empty();
  if (!staging_job) {
    ++inner_outstanding_;
    inner_.submit(job);
    return;
  }
  stage(job);
}

void StagingService::stage(const wms::ConcreteJob& job) {
  ++inbox_->outstanding;
  ++staged_jobs_;
  auto staging = std::make_shared<StagingJob>();
  staging->job_id = job.id;
  staging->transformation = job.transformation;
  staging->site = config_.execution_site;
  staging->submit_time = queue_.now();
  staging->remaining = job.args.size();

  const std::string& exec_site = config_.execution_site;
  const bool inbound = job.kind == wms::JobKind::kStageIn;
  for (const auto& lfn : job.args) {
    if (inbound && config_.reuse_resident && transfers_.has_element(exec_site) &&
        transfers_.element(exec_site).holds(lfn)) {
      // Already resident at the destination: no transfer, just refresh LRU
      // recency. A fully-resident job completes synchronously here.
      StorageElement& element = transfers_.element(exec_site);
      bypassed_bytes_ += element.held_bytes(lfn);
      ++bypassed_files_;
      element.touch(lfn);
      if (--staging->remaining == 0) complete(*inbox_, *staging);
      continue;
    }
    std::string source = inbound ? config_.submit_site : exec_site;
    std::string dest = inbound ? exec_site : config_.submit_site;
    std::uint64_t bytes = config_.default_file_bytes;
    if (inbound) {
      const auto replica = transfers_.select_source(replicas_, lfn, exec_site);
      if (replica.has_value()) {
        source = replica->site;
        if (replica->size_bytes > 0) bytes = replica->size_bytes;
      }
    } else {
      const auto replica = replicas_.best_for_site(lfn, exec_site);
      if (replica.has_value() && replica->size_bytes > 0) bytes = replica->size_bytes;
    }
    transfers_.transfer(lfn, bytes, source, dest,
                        [inbox = inbox_.get(), staging](const TransferResult& result) {
                          if (staging->first_start < 0 ||
                              result.start_time < staging->first_start) {
                            staging->first_start = result.start_time;
                          }
                          staging->last_end =
                              std::max(staging->last_end, result.end_time);
                          staging->attempts += result.attempts;
                          if (result.success) {
                            staging->bytes += result.bytes;
                          } else {
                            staging->all_ok = false;
                            if (staging->error.empty()) {
                              staging->error = result.lfn + ": " + result.failure;
                            }
                          }
                          if (--staging->remaining == 0) complete(*inbox, *staging);
                        });
  }
}

void StagingService::complete(wms::CompletionInbox& inbox, const StagingJob& staging) {
  --inbox.outstanding;
  if (inbox.orphaned) return;
  wms::TaskAttempt attempt;
  attempt.job_id = staging.job_id;
  attempt.transformation = staging.transformation;
  attempt.success = staging.all_ok;
  attempt.error = staging.error;
  attempt.node = staging.site + "-se";
  attempt.submit_time = staging.submit_time;
  // A job whose every file was bypassed never ran a transfer, leaving
  // last_end at 0 — clamp to the submit instant so time never runs
  // backwards in the attempt record.
  attempt.end_time = std::max(staging.last_end, staging.submit_time);
  const double start =
      staging.first_start < 0 ? staging.submit_time : staging.first_start;
  attempt.wait_seconds = start - staging.submit_time;
  attempt.exec_seconds = attempt.end_time - start;
  attempt.transferred_bytes = staging.bytes;
  attempt.transfer_attempts = staging.attempts;
  inbox.completed.push_back(std::move(attempt));
}

std::vector<wms::TaskAttempt> StagingService::drain() {
  // wait_for(0) drains the inner service's finished attempts (and lets it
  // run events already due at the current instant) without advancing time.
  // It must run BEFORE our own queue is snapshotted: stepping those
  // same-instant events can finish our transfers and push into the inbox.
  std::vector<wms::TaskAttempt> out;
  for (auto& attempt : inner_.wait_for(0)) {
    --inner_outstanding_;
    out.push_back(std::move(attempt));
  }
  for (auto& attempt : inbox_->completed) out.push_back(std::move(attempt));
  inbox_->completed.clear();
  return out;
}

std::vector<wms::TaskAttempt> StagingService::wait() {
  for (;;) {
    auto out = drain();
    if (!out.empty()) return out;
    if (inbox_->outstanding == 0 && inner_outstanding_ == 0) return {};
    if (queue_.step()) continue;
    if (inner_outstanding_ > 0) {
      // No queue event can make progress, but the inner service still owes
      // attempts: a decorator (e.g. a fault injector) may be withholding
      // completions on its own schedule. Let it advance the clock itself.
      auto held = inner_.wait();
      for (auto& attempt : held) {
        --inner_outstanding_;
        inbox_->completed.push_back(std::move(attempt));
      }
      if (!held.empty()) continue;
    }
    throw common::WorkflowError(
        "staging deadlock: outstanding transfers/jobs but no pending events");
  }
}

std::vector<wms::TaskAttempt> StagingService::wait_for(double timeout_seconds) {
  const double deadline = queue_.now() + std::max(0.0, timeout_seconds);
  for (;;) {
    auto out = drain();
    if (!out.empty()) return out;
    const auto next = queue_.next_time();
    if (next.has_value() && *next <= deadline) {
      queue_.step();
      continue;
    }
    // No queue event lands by the deadline, so none of OUR transfers can
    // finish in the window — but a decorated inner service may still be
    // withholding completions (e.g. delay faults), released only from its
    // own wait calls. Delegate the residual window so it can burn the
    // simulated time and surface those; with a bare SimService this just
    // advances the shared clock to the deadline.
    if (inner_outstanding_ > 0) {
      auto held = inner_.wait_for(std::max(0.0, deadline - queue_.now()));
      if (!held.empty()) {
        inner_outstanding_ -= held.size();
        return held;
      }
    }
    queue_.advance_to(deadline);
    return {};
  }
}

}  // namespace pga::data
