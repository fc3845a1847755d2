// Microbenchmarks for the discrete-event core and platform models.
#include <benchmark/benchmark.h>

#include "common/strings.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/osg.hpp"

namespace {

using namespace pga;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      queue.schedule(static_cast<double>((i * 7919) % events), [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueThroughput)->Range(1'000, 100'000);

void BM_CampusClusterJobs(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::CampusClusterPlatform platform(queue, {});
    std::size_t done = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
      platform.submit({common::cat({"j", std::to_string(i)}), "t", 1'000, false},
                      [&done](const sim::AttemptResult&) { ++done; });
    }
    queue.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_CampusClusterJobs)->Range(64, 4'096);

void BM_OsgJobsWithPreemption(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::OsgConfig config;
    config.preempt_mean = 2'000;
    sim::OsgPlatform platform(queue, config);
    std::size_t done = 0;
    // Retry failed attempts until success (scheduler's role).
    std::function<void(const std::string&)> submit = [&](const std::string& id) {
      platform.submit({id, "t", 1'500, true}, [&, id](const sim::AttemptResult& r) {
        if (r.success) ++done;
        else submit(id);
      });
    };
    for (std::size_t i = 0; i < jobs; ++i) submit(common::cat({"j", std::to_string(i)}));
    queue.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_OsgJobsWithPreemption)->Range(64, 1'024);

}  // namespace

BENCHMARK_MAIN();
