// Microbenchmarks for the CAP3-like assembler (google-benchmark).
#include <benchmark/benchmark.h>

#include "assembly/cap3.hpp"
#include "bio/transcriptome.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace pga;

std::vector<bio::SeqRecord> fragments_of_one_gene(std::size_t count,
                                                  std::uint64_t seed) {
  common::Rng rng(seed);
  static constexpr std::string_view kBases = "ACGT";
  std::string gene;
  for (int i = 0; i < 1'500; ++i) gene.push_back(kBases[rng.below(4)]);
  std::vector<bio::SeqRecord> fragments;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 600 + rng.below(600);
    const std::size_t start = rng.below(gene.size() - len + 1);
    fragments.push_back(
        {common::cat({"f", std::to_string(i)}), "", gene.substr(start, len)});
  }
  return fragments;
}

void BM_FindOverlaps(benchmark::State& state) {
  const auto seqs = fragments_of_one_gene(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembly::find_overlaps(seqs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindOverlaps)->Range(4, 64)->Complexity();

/// The same workload through the parallel overlap phase at various worker
/// counts (Arg = pool size). Results are bit-identical to serial; the
/// interesting number is the wall-clock ratio to BM_FindOverlaps/32.
void BM_FindOverlapsPool(benchmark::State& state) {
  const auto seqs = fragments_of_one_gene(32, 1);
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembly::find_overlaps(seqs, {}, &pool));
  }
}
BENCHMARK(BM_FindOverlapsPool)->Arg(1)->Arg(2)->Arg(4);

void BM_AssembleCluster(benchmark::State& state) {
  const auto seqs = fragments_of_one_gene(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembly::assemble(seqs));
  }
}
BENCHMARK(BM_AssembleCluster)->Range(4, 64);

void BM_AssembleTranscriptome(benchmark::State& state) {
  bio::TranscriptomeParams params;
  params.families = static_cast<std::size_t>(state.range(0));
  params.protein_min = 80;
  params.protein_max = 150;
  params.fragment_min_frac = 0.6;
  params.seed = 3;
  const auto txm = bio::generate_transcriptome(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembly::assemble(txm.transcripts));
  }
  state.counters["transcripts"] = static_cast<double>(txm.transcripts.size());
}
BENCHMARK(BM_AssembleTranscriptome)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
