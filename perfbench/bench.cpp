#include "bench.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"

namespace pga::perfbench {

common::Summary summarize(const std::vector<double>& values) {
  common::Summary summary;
  for (const double v : values) summary.add(v);
  return summary;
}

namespace {

/// Nearest-rank percentile `p` (0..100) of `values`.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

}  // namespace

std::string percentile_label(double p) {
  const long tenths = std::lround(p * 10);
  std::string label = "p";
  label.append(std::to_string(tenths / 10));
  if (tenths % 10 != 0) label.append(".").append(std::to_string(tenths % 10));
  return label;
}

Tail supported_tail(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  // Nearest rank p leaves n - ceil(p n / 100) samples above it; keeping at
  // least ten there bounds p by 100 (n - 10) / n. Below 20 samples no tail
  // above the median is supported.
  tail.percentile = values.size() < 20 ? 50 : std::min(99.0, 100.0 * (n - 10) / n);
  tail.percentile = std::floor(tail.percentile * 10) / 10;
  tail.value = percentile(std::move(values), tail.percentile);
  return tail;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.is_open()) return false;
  clear << "5\n";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::size_t host_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<common::ThreadPool> make_pool(std::size_t workers) {
  if (workers < 2) return nullptr;
  return std::make_unique<common::ThreadPool>(workers - 1);
}

bool fixed_layout() {
  constexpr unsigned long kAddrNoRandomize = 0x0040000;
  std::ifstream file("/proc/self/personality");
  unsigned long persona = 0;
  return static_cast<bool>(file >> std::hex >> persona) && (persona & kAddrNoRandomize) != 0;
}

void add_trace_metrics(WorkloadReport& report, double wall, double other, bool adds_up,
                       const std::vector<double>& traced_walls,
                       const std::vector<double>& untraced_walls) {
  report.check("layer accounting adds up (layer self times + other == traced wall)",
               adds_up);
  report.layer("trace.wall_s", wall, "s");
  report.layer("trace.other_s", other, "s");
  report.layer("trace.other_pct", 100.0 * other / wall, "%");
  report.layer("trace.overhead_pct",
               100.0 * (summarize(traced_walls).median() /
                            summarize(untraced_walls).median() -
                        1.0),
               "%");
}

// ------------------------------------------------------------------ Tracer

Tracer::Id Tracer::begin(std::string_view name, std::uint64_t request) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? kNone : open_.back();
  span.request = request;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  const Id id = static_cast<Id>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

Tracer::Bucket& Tracer::bucket(std::string_view name) {
  Bucket bucket;
  bucket.name = std::string(name);
  bucket.parent = open_.empty() ? kNone : open_.back();
  buckets_.push_back(std::move(bucket));
  return buckets_.back();
}

void Tracer::end(Id id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: span closed out of order");
  }
  spans_[id].end = Clock::now();
  open_.pop_back();
}

std::string Tracer::layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

double Tracer::duration(Id id) const {
  return seconds_between(spans_.at(id).start, spans_.at(id).end);
}

std::vector<char> Tracer::subtree(Id root) const {
  // Spans are appended in open order, so a parent always precedes its
  // children and one forward sweep marks the whole subtree.
  std::vector<char> in_tree(spans_.size(), 0);
  in_tree.at(root) = 1;
  for (Id i = root + 1; i < spans_.size(); ++i) {
    in_tree[i] = spans_[i].parent != kNone && in_tree[spans_[i].parent];
  }
  return in_tree;
}

std::vector<double> Tracer::durations(Id root, std::string_view name) const {
  const std::vector<char> in_tree = subtree(root);
  std::vector<double> out;
  for (Id i = root; i < spans_.size(); ++i) {
    if (in_tree[i] && spans_[i].name == name) out.push_back(duration(i));
  }
  return out;
}

Tracer::Accounting Tracer::account(Id root) const {
  const std::vector<char> in_tree = subtree(root);
  std::vector<double> self(spans_.size(), 0);
  for (Id i = root; i < spans_.size(); ++i) {
    if (!in_tree[i]) continue;
    self[i] += duration(i);
    if (i != root) self[spans_[i].parent] -= duration(i);
  }
  Accounting out;
  for (const Bucket& b : buckets_) {
    if (b.parent == kNone || !in_tree[b.parent]) continue;
    self[b.parent] -= b.busy_seconds;
    out.self[layer_of(b.name)] += b.busy_seconds;
  }
  bool none_negative = true;
  for (Id i = root; i < spans_.size(); ++i) {
    if (!in_tree[i]) continue;
    out.self[i == root ? "other" : layer_of(spans_[i].name)] += self[i];
    none_negative = none_negative && self[i] >= 0;
  }
  out.wall = duration(root);
  double total = 0;
  for (const auto& [layer, seconds] : out.self) total += seconds;
  out.adds_up = none_negative && std::abs(total - out.wall) <= 1e-6 * out.wall;
  return out;
}

double Tracer::Accounting::of(const std::string& layer) const {
  const auto it = self.find(layer);
  return it == self.end() ? 0.0 : it->second;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto at = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin_).count();
  };
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": "
        << (s.parent == kNone ? -1L : static_cast<long>(s.parent))
        << ", \"request\": " << s.request << ", \"start_s\": " << at(s.start)
        << ", \"end_s\": " << at(s.end) << "}" << (i + 1 < spans_.size() ? "," : "")
        << "\n";
  }
  out << "],\n\"buckets\": [\n";
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    out << "  {\"name\": \"" << b.name << "\", \"parent\": "
        << (b.parent == kNone ? -1L : static_cast<long>(b.parent))
        << ", \"count\": " << b.count << ", \"busy_s\": " << b.busy_seconds << "}"
        << (i + 1 < buckets_.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace pga::perfbench
