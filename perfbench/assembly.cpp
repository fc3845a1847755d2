// assembly: the paper's science pipeline on synthetic transcriptomes with
// ground truth. A pass takes each of the seed's transcriptome samples
// through BLASTX search -> best-hit clustering -> per-cluster overlap +
// consensus (the protein-guided blast2cap3 assembly), plus the whole-set
// CAP3 baseline over all of the sample's transcripts (one large overlap
// set next to many small heavy-tailed clusters).
//
// Several independent samples per seed keep throughput steady across
// seeds: the whole-set cost grows with the square of the repeat-carrying
// transcripts, whose count is a binomial draw per sample.
//
// Set-up is the BlastxSearch indexes and the worker pool. Every run also
// makes one single-thread pass: the bytes of every pooled pass must equal
// it, cluster by cluster.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/blastx.hpp"
#include "align/sw.hpp"
#include "assembly/cap3.hpp"
#include "assembly/metrics.hpp"
#include "b2c3/cluster.hpp"
#include "bench.hpp"
#include "bio/transcriptome.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace pga::perfbench {
namespace {

constexpr std::size_t kSamples = 4;  // transcriptomes per seed

// Quality tolerance for the guided assembly over all samples, recorded
// with the benchmark: the catalogue shrinks by a reduction inside this
// band, and the guided run fuses fewer genes than whole-set CAP3 (the
// paper's §II claim).
constexpr double kMinReductionPct = 70.0;
constexpr double kMaxReductionPct = 92.0;

bio::TranscriptomeParams sample_params(std::uint64_t seed, std::size_t sample) {
  bio::TranscriptomeParams params;
  params.families = 24;
  params.protein_min = 60;
  params.protein_max = 100;
  params.paralogs_max = 2;
  params.fragments_max = 4;
  params.fragment_min_frac = 0.6;
  params.repeat_gene_fraction = 0.35;  // the whole-set fusion trap (paper §II)
  params.seed = common::mix64(seed ^ common::mix64(sample + 1));
  return params;
}

struct Sample {
  bio::Transcriptome txm;
  const align::BlastxSearch* search = nullptr;
};

std::string serialize(const assembly::AssemblyResult& result) {
  std::string out;
  for (const auto& c : result.contigs) {
    out.append(">").append(c.id);
    for (const auto& m : c.members) out.append(" ").append(m);
    out.append("\n").append(c.consensus).append("\n");
  }
  for (const auto& s : result.singlets) out.append("S ").append(s.id).append("\n");
  return out;
}

/// True when `result` holds each of `ids` exactly once, as a contig member
/// or a singlet, and nothing else.
bool partitions(const assembly::AssemblyResult& result, std::vector<std::string> ids) {
  std::vector<std::string> seen;
  for (const auto& c : result.contigs) seen.insert(seen.end(), c.members.begin(), c.members.end());
  for (const auto& s : result.singlets) seen.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  std::sort(seen.begin(), seen.end());
  return ids == seen;
}

/// Work counters of one pass (filled on traced passes only).
struct Counters {
  std::size_t hits = 0;
  std::uint64_t search_cells = 0;
  std::uint64_t overlap_cells = 0;
  std::size_t clusters = 0;
  std::size_t cluster_size_max = 0;
  assembly::OverlapStats overlaps;
};

/// One sample's outputs; the per-cluster entries are in cluster order.
struct SampleOutput {
  std::vector<std::string> cluster_bytes;
  std::vector<std::vector<std::string>> cluster_ids;
  assembly::AssemblyResult guided;  ///< every cluster + the unclustered
  assembly::AssemblyResult whole;   ///< whole-set CAP3 baseline
  std::string whole_bytes;
  std::size_t bad_partitions = 0;   ///< clusters whose output is not a partition
};

struct PassOutput {
  double wall_s = 0;
  Tracer::Id root = Tracer::kNone;
  Counters counters;
  std::vector<SampleOutput> samples;
};

/// The guided and whole-set assemblies of one sample. `verify` also checks
/// that each cluster's output partitions its members.
SampleOutput run_sample(const Sample& sample, common::ThreadPool* pool, Tracer* tracer,
                        bool verify, Counters& counters) {
  const bio::Transcriptome& txm = sample.txm;
  SampleOutput out;
  const auto cells = [&]() -> std::uint64_t { return tracer ? align::dp_counters().cells : 0; };

  std::uint64_t cells_before = cells();
  std::vector<align::TabularHit> hits;
  {
    const Scope span(tracer, "align.search_all");
    hits = sample.search->search_all(txm.transcripts, pool);
  }
  counters.search_cells += cells() - cells_before;
  counters.hits += hits.size();

  b2c3::ClusterSet clusters;
  {
    const Scope span(tracer, "b2c3.cluster_by_best_hit");
    clusters = b2c3::cluster_by_best_hit(hits);
  }
  counters.clusters += clusters.clusters.size();
  counters.cluster_size_max = std::max(counters.cluster_size_max, clusters.largest_cluster());

  std::unordered_map<std::string, std::size_t> position;
  for (std::size_t i = 0; i < txm.transcripts.size(); ++i) position[txm.transcripts[i].id] = i;
  std::vector<char> clustered(txm.transcripts.size(), 0);

  cells_before = cells();
  for (std::size_t c = 0; c < clusters.clusters.size(); ++c) {
    const b2c3::ProteinCluster& cluster = clusters.clusters[c];
    std::vector<bio::SeqRecord> members;
    members.reserve(cluster.transcripts.size());
    for (const auto& id : cluster.transcripts) {
      const std::size_t i = position.at(id);
      members.push_back(txm.transcripts[i]);
      clustered[i] = 1;
    }
    assembly::AssemblyOptions options;
    options.prefix = cluster.protein_id + ".Contig";
    assembly::OverlapStats stats;
    std::vector<assembly::Overlap> overlaps;
    assembly::AssemblyResult result;
    {
      const Scope span(tracer, "assembly.find_overlaps", c);
      overlaps = assembly::find_overlaps(members, options.overlap, pool, &stats);
    }
    {
      const Scope span(tracer, "assembly.assemble_with_overlaps", c);
      result = assembly::assemble_with_overlaps(members, overlaps, options);
    }
    counters.overlaps.candidate_pairs += stats.candidate_pairs;
    counters.overlaps.pruned += stats.pruned;
    counters.overlaps.tracebacks += stats.tracebacks;
    counters.overlaps.accepted += stats.accepted;
    if (verify && !partitions(result, cluster.transcripts)) ++out.bad_partitions;
    out.cluster_bytes.push_back(serialize(result));
    out.cluster_ids.push_back(cluster.transcripts);
    for (auto& contig : result.contigs) out.guided.contigs.push_back(std::move(contig));
    for (auto& singlet : result.singlets) out.guided.singlets.push_back(std::move(singlet));
  }
  counters.overlap_cells += cells() - cells_before;
  for (std::size_t i = 0; i < txm.transcripts.size(); ++i) {
    if (!clustered[i]) out.guided.singlets.push_back(txm.transcripts[i]);
  }

  std::vector<assembly::Overlap> whole_overlaps;
  {
    const Scope span(tracer, "assembly.whole_find_overlaps");
    whole_overlaps = assembly::find_overlaps(txm.transcripts, {}, pool);
  }
  {
    const Scope span(tracer, "assembly.whole_assemble_with_overlaps");
    out.whole = assembly::assemble_with_overlaps(txm.transcripts, whole_overlaps, {});
  }
  out.whole_bytes = serialize(out.whole);
  return out;
}

PassOutput run_pass(const std::vector<Sample>& samples, common::ThreadPool* pool,
                    Tracer* tracer, std::uint64_t pass_index, bool verify) {
  PassOutput out;
  const auto start = Clock::now();
  {
    const Scope root(tracer, "bench.pass", pass_index);
    out.root = root.id();
    for (const Sample& sample : samples) {
      out.samples.push_back(run_sample(sample, pool, tracer, verify, out.counters));
    }
  }
  out.wall_s = seconds_since(start);
  return out;
}

/// Clusters (plus whole-set runs) of `pass` whose bytes differ from the
/// reference pass.
std::size_t mismatches(const PassOutput& pass, const PassOutput& reference) {
  std::size_t bad = 0;
  for (std::size_t s = 0; s < reference.samples.size(); ++s) {
    const SampleOutput& got = pass.samples[s];
    const SampleOutput& want = reference.samples[s];
    const std::size_t clusters = std::max(got.cluster_bytes.size(), want.cluster_bytes.size());
    for (std::size_t c = 0; c < clusters; ++c) {
      const bool ok = c < got.cluster_bytes.size() && c < want.cluster_bytes.size() &&
                      got.cluster_bytes[c] == want.cluster_bytes[c] &&
                      got.cluster_ids[c] == want.cluster_ids[c];
      bad += ok ? 0 : 1;
    }
    bad += got.whole_bytes == want.whole_bytes ? 0 : 1;
  }
  return bad;
}

}  // namespace

WorkloadReport run_assembly(const RunConfig& config, Tracer& tracer) {
  std::vector<Sample> samples(kSamples);
  std::size_t transcripts = 0;
  for (std::size_t k = 0; k < kSamples; ++k) {
    samples[k].txm = bio::generate_transcriptome(sample_params(config.seed, k));
    transcripts += samples[k].txm.transcripts.size();
  }

  WorkloadReport report;
  const bool rss_reset = reset_peak_rss();

  // Set-up: the search indexes and the pool.
  const auto make_searches = [&] {
    std::vector<std::unique_ptr<align::BlastxSearch>> searches;
    for (const Sample& sample : samples) {
      searches.push_back(std::make_unique<align::BlastxSearch>(sample.txm.proteins));
    }
    return searches;
  };
  // One set-up sample, split into the index part (align.index_s) and the
  // whole (setup_s): the indexes timed as in sample_setup (on every worker
  // thread at once, the fastest counts), plus the pool timed on this
  // thread.
  std::vector<double> index_samples;
  const auto take_setup_sample = [&] {
    const double index_s = sample_setup(config.workers, make_searches, 1);
    const double pool_s = time_setup([&] { return make_pool(config.workers); }, 1);
    index_samples.push_back(index_s);
    report.setup_seconds.push_back(index_s + pool_s);
  };
  const auto searches = make_searches();
  const std::unique_ptr<common::ThreadPool> pool = make_pool(config.workers);
  for (std::size_t k = 0; k < kSamples; ++k) samples[k].search = searches[k].get();

  // The single-thread reference every pooled pass must reproduce.
  const PassOutput serial = run_pass(samples, nullptr, nullptr, 0, /*verify=*/true);
  std::size_t attempted_per_pass = 0;
  for (const SampleOutput& sample : serial.samples) {
    attempted_per_pass += sample.cluster_bytes.size() + 1;  // clusters + whole set
  }

  std::vector<double> untraced_wall;
  std::vector<PassOutput> traced;
  std::size_t bad_clusters = 0;

  const auto window = Clock::now();
  double last_pass_s = 0;
  for (std::size_t done = 0; more_passes(config, done, window, last_pass_s); ++done) {
    const bool is_traced = traced_pass(config, done);
    take_setup_sample();
    PassOutput pass = run_pass(samples, pool.get(), is_traced ? &tracer : nullptr, done,
                               /*verify=*/false);
    report.attempted += attempted_per_pass;
    bad_clusters += mismatches(pass, serial);
    last_pass_s = pass.wall_s;
    if (is_traced) {
      traced.push_back(std::move(pass));
    } else {
      untraced_wall.push_back(pass.wall_s);
    }
    ++report.passes;
  }

  // Output checks on the reference pass (every pooled pass equals it).
  std::size_t bad_partitions = 0;
  bool guided_partition = true;
  bool whole_partition = true;
  std::size_t guided_outputs = 0;
  std::size_t guided_fused = 0;
  std::size_t whole_outputs = 0;
  std::size_t whole_fused = 0;
  for (std::size_t k = 0; k < kSamples; ++k) {
    const bio::Transcriptome& txm = samples[k].txm;
    const SampleOutput& out = serial.samples[k];
    std::vector<std::string> ids;
    for (const auto& t : txm.transcripts) ids.push_back(t.id);
    bad_partitions += out.bad_partitions;
    guided_partition = guided_partition && partitions(out.guided, ids);
    whole_partition = whole_partition && partitions(out.whole, ids);
    const auto n = txm.transcripts.size();
    const auto guided = assembly::compute_metrics(n, out.guided, txm.transcript_gene);
    const auto whole = assembly::compute_metrics(n, out.whole, txm.transcript_gene);
    guided_outputs += guided.output_sequences;
    guided_fused += guided.fused_sequences;
    whole_outputs += whole.output_sequences;
    whole_fused += whole.fused_sequences;
  }
  const auto reduction = [&](std::size_t outputs) {
    return 100.0 * (1.0 - static_cast<double>(outputs) / static_cast<double>(transcripts));
  };
  const double reduction_pct = reduction(guided_outputs);
  const bool quality_ok = reduction_pct >= kMinReductionPct &&
                          reduction_pct <= kMaxReductionPct && guided_fused < whole_fused;
  report.failed = bad_clusters + bad_partitions + (quality_ok ? 0 : 1) +
                  (guided_partition && whole_partition ? 0 : 1);

  report.check("pooled passes byte-identical to the single-thread pass", bad_clusters == 0,
               std::to_string(bad_clusters) + " mismatching cluster runs");
  report.check("every transcript in exactly one guided contig or singlet",
               guided_partition && bad_partitions == 0,
               std::to_string(bad_partitions) + " clusters not partitioned");
  report.check("every transcript in exactly one whole-set contig or singlet",
               whole_partition);
  report.check("guided quality within tolerance", quality_ok,
               "reduction " + std::to_string(reduction_pct) + "% in [" +
                   std::to_string(kMinReductionPct) + ", " +
                   std::to_string(kMaxReductionPct) + "], fused " +
                   std::to_string(guided_fused) + " < whole-set " +
                   std::to_string(whole_fused));
  report.check("peak RSS reset before the workload", rss_reset);
  report.digest = common::kFnv1aOffset;
  for (const SampleOutput& sample : serial.samples) {
    for (const std::string& bytes : sample.cluster_bytes) {
      report.digest = common::fnv1a(report.digest, bytes);
    }
    report.digest = common::fnv1a(report.digest, sample.whole_bytes);
  }

  const double transcripts_per_s =
      static_cast<double>(transcripts) / summarize(untraced_wall).median();
  report.end_to_end = {{"work_per_s", transcripts_per_s, "1/s"},
                       {"setup_s", summarize(report.setup_seconds).median(), "s"},
                       {"peak_rss_mb", peak_rss_mb(), "MB"}};
  report.result("transcripts_per_s", transcripts_per_s, "1/s");
  report.result("transcripts", static_cast<double>(transcripts), "count");
  report.result("fail_ratio",
                static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                "ratio");
  report.result("reduction_pct", reduction_pct, "%");
  report.result("fused_sequences", static_cast<double>(guided_fused), "count");
  report.result("whole_reduction_pct", reduction(whole_outputs), "%");
  report.result("whole_fused_sequences", static_cast<double>(whole_fused), "count");

  report.pass_seconds = untraced_wall;
  if (!config.trace) return report;

  std::sort(traced.begin(), traced.end(),
            [](const PassOutput& a, const PassOutput& b) { return a.wall_s < b.wall_s; });
  std::vector<double> traced_wall;
  for (const PassOutput& p : traced) traced_wall.push_back(p.wall_s);
  const PassOutput& pass = traced[(traced.size() - 1) / 2];
  const Counters& counters = pass.counters;

  const Tracer::Accounting accounting = tracer.account(pass.root);
  const auto spans = [&](const char* name) { return tracer.durations(pass.root, name); };
  const std::vector<double> overlap = spans("assembly.find_overlaps");
  const std::vector<double> consensus = spans("assembly.assemble_with_overlaps");
  std::vector<double> per_cluster;
  for (std::size_t c = 0; c < overlap.size() && c < consensus.size(); ++c) {
    per_cluster.push_back(overlap[c] + consensus[c]);
  }
  const Tail cluster_tail = supported_tail(per_cluster);

  report.layer("align.index_s", summarize(index_samples).median(), "s");
  report.layer("align.search_s", summarize(spans("align.search_all")).sum(), "s");
  report.layer("align.hits", static_cast<double>(counters.hits), "count");
  report.layer("align.dp_cells", static_cast<double>(counters.search_cells), "count");
  report.layer("b2c3.cluster_s", summarize(spans("b2c3.cluster_by_best_hit")).sum(), "s");
  report.layer("b2c3.clusters", static_cast<double>(counters.clusters), "count");
  report.layer("b2c3.cluster_size_max", static_cast<double>(counters.cluster_size_max),
               "count");
  report.layer("assembly.overlap_s", summarize(overlap).sum(), "s");
  report.layer("assembly.consensus_s", summarize(consensus).sum(), "s");
  report.layer("assembly.candidate_pairs",
               static_cast<double>(counters.overlaps.candidate_pairs), "count");
  report.layer("assembly.pruned", static_cast<double>(counters.overlaps.pruned), "count");
  report.layer("assembly.accepted", static_cast<double>(counters.overlaps.accepted), "count");
  report.layer("assembly.dp_cells", static_cast<double>(counters.overlap_cells), "count");
  report.layer("assembly.cluster_p50_s", summarize(per_cluster).median(), "s");
  report.layer("assembly.cluster_tail_s", cluster_tail.value, "s");
  report.layer("assembly.cluster_tail_pct", cluster_tail.percentile, "pct");
  report.layer("assembly.whole_overlap_s",
               summarize(spans("assembly.whole_find_overlaps")).sum(), "s");
  report.layer("assembly.whole_consensus_s",
               summarize(spans("assembly.whole_assemble_with_overlaps")).sum(), "s");
  // A second, warm single-thread pass: the reference pass above also pays
  // first-touch costs and the partition checks.
  const double serial_wall = run_pass(samples, nullptr, nullptr, 0, /*verify=*/false).wall_s;
  report.layer("common.parallel_speedup", serial_wall / summarize(untraced_wall).median(), "x");
  add_trace_metrics(report, accounting.wall, accounting.of("other"), accounting.adds_up,
                    traced_wall, untraced_wall);
  return report;
}

}  // namespace pga::perfbench
