#include "data/transfer_manager.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"

namespace pga::data {

using common::InvalidArgument;

TransferManager::TransferManager(sim::EventQueue& queue, TransferConfig config)
    : queue_(queue), config_(config), rng_(config.seed) {
  if (config_.latency_seconds < 0) {
    throw InvalidArgument("TransferManager: latency must be >= 0");
  }
  if (config_.failure_probability < 0 || config_.failure_probability >= 1.0) {
    throw InvalidArgument("TransferManager: failure_probability must be in [0,1)");
  }
  if (config_.retry_backoff_seconds < 0) {
    throw InvalidArgument("TransferManager: retry backoff must be >= 0");
  }
}

void TransferManager::add_element(StorageElementConfig config) {
  const auto [it, added] = element_ids_.emplace(
      config.site, static_cast<std::uint32_t>(elements_.size()));
  if (added) {
    elements_.emplace_back(std::move(config));
  } else {
    elements_[it->second] = StorageElement(std::move(config));
  }
  elements_[it->second].set_event_sink(event_bus_);
}

void TransferManager::set_event_bus(StorageEventBus* bus) {
  event_bus_ = bus;
  for (auto& element : elements_) element.set_event_sink(bus);
}

bool TransferManager::has_element(const std::string& site) const {
  return element_ids_.count(site) != 0;
}

StorageElement& TransferManager::element(const std::string& site) {
  const auto it = element_ids_.find(site);
  if (it == element_ids_.end()) {
    throw InvalidArgument("TransferManager: no storage element for site " + site);
  }
  return elements_[it->second];
}

const StorageElement& TransferManager::element(const std::string& site) const {
  const auto it = element_ids_.find(site);
  if (it == element_ids_.end()) {
    throw InvalidArgument("TransferManager: no storage element for site " + site);
  }
  return elements_[it->second];
}

std::uint32_t TransferManager::ensure_element(const std::string& site) {
  const auto it = element_ids_.find(site);
  if (it != element_ids_.end()) return it->second;
  StorageElementConfig config;
  config.site = site;
  add_element(std::move(config));
  return static_cast<std::uint32_t>(elements_.size() - 1);
}

std::optional<wms::Replica> TransferManager::select_source(
    const wms::ReplicaCatalog& catalog, const std::string& lfn,
    const std::string& dest_site) const {
  const auto candidates = catalog.lookup(lfn);
  if (candidates.empty()) return std::nullopt;

  const wms::Replica* local = nullptr;
  const wms::Replica* fastest = nullptr;
  double fastest_bps = -1;
  const wms::Replica* any = nullptr;
  for (const auto& replica : candidates) {
    if (replica.site == dest_site && (local == nullptr || replica.pfn < local->pfn)) {
      local = &replica;
    }
    const auto it = element_ids_.find(replica.site);
    if (it != element_ids_.end()) {
      const double bps = elements_[it->second].config().bandwidth_out_bps;
      if (fastest == nullptr || bps > fastest_bps ||
          (bps == fastest_bps && std::tie(replica.site, replica.pfn) <
                                     std::tie(fastest->site, fastest->pfn))) {
        fastest = &replica;
        fastest_bps = bps;
      }
    }
    if (any == nullptr || std::tie(replica.site, replica.pfn) <
                              std::tie(any->site, any->pfn)) {
      any = &replica;
    }
  }
  if (local != nullptr) return *local;
  if (fastest != nullptr) return *fastest;
  return *any;
}

double TransferManager::duration_for(std::uint64_t bytes,
                                     const std::string& source_site,
                                     const std::string& dest_site) const {
  if (source_site == dest_site) return config_.latency_seconds;
  const auto src = element_ids_.find(source_site);
  const auto dst = element_ids_.find(dest_site);
  if (src != element_ids_.end() && dst != element_ids_.end()) {
    return duration_between(bytes, src->second, dst->second);
  }
  double bps = StorageElementConfig{}.bandwidth_out_bps;
  if (src != element_ids_.end()) {
    bps = elements_[src->second].config().bandwidth_out_bps;
  } else if (dst != element_ids_.end()) {
    bps = elements_[dst->second].config().bandwidth_in_bps;
  }
  return config_.latency_seconds + static_cast<double>(bytes) / bps;
}

double TransferManager::duration_between(std::uint64_t bytes, std::uint32_t source,
                                         std::uint32_t dest) const {
  if (source == dest) return config_.latency_seconds;
  const double bps = std::min(elements_[source].config().bandwidth_out_bps,
                              elements_[dest].config().bandwidth_in_bps);
  return config_.latency_seconds + static_cast<double>(bytes) / bps;
}

void TransferManager::transfer(const std::string& lfn, std::uint64_t bytes,
                               const std::string& source_site,
                               const std::string& dest_site,
                               TransferCallback on_complete) {
  if (!on_complete) throw InvalidArgument("TransferManager: null callback");
  auto request = std::make_shared<Request>();
  request->lfn = lfn;
  request->bytes = bytes;
  request->source = ensure_element(source_site);
  request->dest = ensure_element(dest_site);
  const auto [lane, added] = lane_ids_.emplace(
      std::make_pair(request->source, request->dest),
      static_cast<std::uint32_t>(lanes_.size()));
  if (added) lanes_.push_back(Lane{request->source, request->dest, {}});
  request->lane = lane->second;
  request->on_complete = std::move(on_complete);
  request->submit_time = queue_.now();
  enqueue(std::move(request));
  pump();
}

void TransferManager::enqueue(std::shared_ptr<Request> request) {
  request->seq = next_seq_++;
  lanes_[request->lane].waiting.push_back(std::move(request));
  ++queued_;
}

void TransferManager::pump() {
  // Every request of a lane shares one dispatchability test (free slots on
  // its two endpoints), so starting the oldest head among dispatchable
  // lanes, again and again, starts exactly what a scan of one FIFO for the
  // first dispatchable request would: a request blocked on a busy endpoint
  // never starves transfers between idle sites, and FIFO order still wins
  // among requests contending for the same endpoints.
  while (queued_ > 0) {
    Lane* oldest = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.waiting.empty()) continue;
      if (oldest != nullptr && oldest->waiting.front()->seq < lane.waiting.front()->seq) {
        continue;
      }
      const bool dispatchable =
          elements_[lane.dest].slot_available() &&
          (lane.source == lane.dest || elements_[lane.source].slot_available());
      if (dispatchable) oldest = &lane;
    }
    if (oldest == nullptr) return;
    std::shared_ptr<Request> request = std::move(oldest->waiting.front());
    oldest->waiting.pop_front();
    --queued_;
    start(std::move(request));
  }
}

void TransferManager::start(std::shared_ptr<Request> request) {
  StorageElement& src = elements_[request->source];
  StorageElement& dst = elements_[request->dest];
  const bool same_site = request->source == request->dest;
  if (!same_site) src.acquire_slot();
  dst.acquire_slot();
  // Reading from the source counts as a use for LRU recency (no-op when
  // the source doesn't hold the file or eviction is disabled).
  src.touch(request->lfn);
  ++in_flight_;
  ++request->attempts;
  if (request->first_start < 0) request->first_start = queue_.now();

  const double duration = duration_between(request->bytes, request->source, request->dest);
  // Failure draw order is fixed (fail?, then partial fraction) so the RNG
  // stream — and with it the whole run — replays from the seed.
  bool failed = false;
  double elapsed = duration;
  if (config_.failure_probability > 0) {
    failed = rng_.uniform() < config_.failure_probability;
    if (failed) elapsed = rng_.uniform(0.0, duration);
  }

  queue_.schedule_in(elapsed, [this, request = std::move(request), same_site,
                               failed]() mutable {
    StorageElement& src = elements_[request->source];
    StorageElement& dst = elements_[request->dest];
    if (!same_site) src.release_slot();
    dst.release_slot();
    --in_flight_;
    if (!failed) {
      dst.store(request->lfn, request->bytes);
      finish(request, /*success=*/true);
    } else if (request->attempts <= config_.max_retries) {
      ++stats_.retries;
      queue_.schedule_in(config_.retry_backoff_seconds,
                         [this, request = std::move(request)]() mutable {
                           enqueue(std::move(request));
                           pump();
                         });
    } else {
      finish(request, /*success=*/false);
    }
    pump();
  });
}

void TransferManager::finish(const std::shared_ptr<Request>& request, bool success) {
  TransferResult result;
  result.lfn = request->lfn;
  result.source_site = elements_[request->source].site();
  result.dest_site = elements_[request->dest].site();
  result.bytes = request->bytes;
  result.submit_time = request->submit_time;
  result.start_time = request->first_start;
  result.end_time = queue_.now();
  result.attempts = request->attempts;
  result.success = success;
  if (success) {
    stats_.bytes_moved += request->bytes;
    ++stats_.completed;
  } else {
    result.failure = "transfer failed after " + std::to_string(request->attempts) +
                     " attempts";
    ++stats_.failed;
  }
  request->on_complete(result);
}

void add_site_elements(TransferManager& transfers, const wms::SiteCatalog& sites,
                       std::size_t transfer_slots) {
  for (const auto& name : sites.names()) {
    const wms::SiteEntry& site = sites.site(name);
    StorageElementConfig element;
    element.site = name;
    element.bandwidth_in_bps = site.stage_bandwidth_bps;
    element.bandwidth_out_bps = site.stage_bandwidth_bps;
    element.transfer_slots = transfer_slots;
    transfers.add_element(std::move(element));
  }
  StorageElementConfig submit_host;
  submit_host.site = "local";
  submit_host.transfer_slots = transfer_slots;
  transfers.add_element(std::move(submit_host));
}

}  // namespace pga::data
