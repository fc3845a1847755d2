#include "b2c3/splitter.hpp"

#include "b2c3/cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace pga::b2c3 {
namespace {

align::TabularHit hit(const std::string& q, const std::string& s) {
  align::TabularHit h;
  h.qseqid = q;
  h.sseqid = s;
  h.pident = 95;
  h.length = 100;
  h.bitscore = 100;
  h.evalue = 1e-20;
  h.qstart = 1;
  h.qend = 300;
  h.sstart = 1;
  h.send = 100;
  return h;
}

std::vector<align::TabularHit> random_hits(std::size_t n_hits, std::size_t n_proteins,
                                           std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<align::TabularHit> hits;
  for (std::size_t i = 0; i < n_hits; ++i) {
    hits.push_back(hit(common::cat({"t", std::to_string(i)}),
                       common::cat({"p", std::to_string(rng.zipf(n_proteins, 1.1))})));
  }
  return hits;
}

TEST(Split, RejectsZeroChunks) {
  std::vector<std::string> order;
  EXPECT_THROW(plan_split({}, 0, order), common::InvalidArgument);
}

TEST(Split, LosslessPartitionOfHits) {
  const auto hits = random_hits(1000, 40, 5);
  const auto chunks = split_hits(hits, 7);
  ASSERT_EQ(chunks.size(), 7u);
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  EXPECT_EQ(total, hits.size());
}

TEST(Split, ProteinsAreAtomic) {
  const auto hits = random_hits(1000, 40, 7);
  const auto chunks = split_hits(hits, 7);
  std::map<std::string, std::set<std::size_t>> protein_chunks;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (const auto& h : chunks[c]) protein_chunks[h.sseqid].insert(c);
  }
  for (const auto& [protein, in_chunks] : protein_chunks) {
    EXPECT_EQ(in_chunks.size(), 1u) << protein << " split across chunks";
  }
}

TEST(Split, BalancedLoads) {
  // Uniform-ish proteins: greedy largest-first should stay within 2x of
  // the mean.
  std::vector<align::TabularHit> hits;
  for (int p = 0; p < 60; ++p) {
    for (int i = 0; i < 10; ++i) {
      hits.push_back(hit(common::cat({"t", std::to_string(p * 10 + i)}),
                         common::cat({"p", std::to_string(p)})));
    }
  }
  const auto chunks = split_hits(hits, 6);
  for (const auto& chunk : chunks) {
    EXPECT_GE(chunk.size(), 50u);
    EXPECT_LE(chunk.size(), 200u);
  }
}

TEST(Split, MoreChunksThanProteinsLeavesEmpties) {
  const std::vector<align::TabularHit> hits{hit("t1", "pA"), hit("t2", "pB")};
  const auto chunks = split_hits(hits, 5);
  ASSERT_EQ(chunks.size(), 5u);
  std::size_t non_empty = 0;
  for (const auto& chunk : chunks) {
    if (!chunk.empty()) ++non_empty;
  }
  EXPECT_EQ(non_empty, 2u);
}

TEST(Split, SingleChunkKeepsEverything) {
  const auto hits = random_hits(200, 10, 9);
  const auto chunks = split_hits(hits, 1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), hits.size());
}

TEST(Split, DeterministicPlan) {
  const auto hits = random_hits(500, 25, 11);
  std::vector<std::string> order_a, order_b;
  const auto plan_a = plan_split(hits, 4, order_a);
  const auto plan_b = plan_split(hits, 4, order_b);
  EXPECT_EQ(plan_a, plan_b);
  EXPECT_EQ(order_a, order_b);
}

TEST(Split, FileLevelSplitWritesNFiles) {
  common::ScratchDir dir("split-test");
  const auto hits = random_hits(300, 20, 13);
  const auto in = dir.file("alignments.out");
  align::write_tabular_file(in, hits);
  const auto paths = split_alignment_file(in, dir.path(), 4);
  ASSERT_EQ(paths.size(), 4u);
  std::size_t total = 0;
  for (const auto& p : paths) {
    EXPECT_TRUE(std::filesystem::exists(p)) << p;
    total += align::read_tabular_file(p).size();
  }
  EXPECT_EQ(total, hits.size());
  EXPECT_EQ(paths[0].filename(), "protein_0.txt");
  EXPECT_EQ(paths[3].filename(), "protein_3.txt");
}

TEST(SplitComponentAtomic, SharedHitClusteringSurvivesSplitting) {
  // Multi-protein transcripts connect proteins; the component-atomic split
  // must keep each connected component whole so per-chunk shared-hit
  // clustering equals whole-input clustering.
  common::Rng rng(77);
  std::vector<align::TabularHit> hits;
  for (int i = 0; i < 400; ++i) {
    const std::string q = common::cat({"t", std::to_string(i)});
    hits.push_back(hit(q, common::cat({"p", std::to_string(rng.below(30))})));
    if (rng.chance(0.3)) {
      hits.push_back(hit(q, common::cat({"p", std::to_string(rng.below(30))})));  // 2nd domain
    }
  }
  const auto chunks = b2c3::split_hits_component_atomic(hits, 6);
  ASSERT_EQ(chunks.size(), 6u);

  // Lossless.
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  EXPECT_EQ(total, hits.size());

  // Per-chunk clustering merged = whole-input clustering.
  std::map<std::string, std::vector<std::string>> merged;
  for (const auto& chunk : chunks) {
    for (const auto& cluster : b2c3::cluster_by_shared_hit(chunk).clusters) {
      EXPECT_TRUE(merged.emplace(cluster.protein_id, cluster.transcripts).second)
          << "component " << cluster.protein_id << " split across chunks";
    }
  }
  std::map<std::string, std::vector<std::string>> whole;
  for (const auto& cluster : b2c3::cluster_by_shared_hit(hits).clusters) {
    whole[cluster.protein_id] = cluster.transcripts;
  }
  EXPECT_EQ(merged, whole);
}

TEST(SplitComponentAtomic, PlainProteinSplitWouldBreakComponents) {
  // Demonstrate why the component-atomic variant exists: with bridging
  // transcripts, the protein-atomic split can separate a component.
  std::vector<align::TabularHit> hits;
  for (int p = 0; p < 8; ++p) {
    for (int i = 0; i < 10; ++i) {
      hits.push_back(hit(common::cat({"t", std::to_string(p * 10 + i)}),
                         common::cat({"p", std::to_string(p)})));
    }
  }
  // One bridge transcript linking p0 and p7.
  hits.push_back(hit("bridge", "p0"));
  hits.push_back(hit("bridge", "p7"));

  const auto atomic = b2c3::split_hits_component_atomic(hits, 4);
  std::map<std::string, std::set<std::size_t>> chunk_of;
  for (std::size_t c = 0; c < atomic.size(); ++c) {
    for (const auto& h : atomic[c]) {
      if (h.sseqid == "p0" || h.sseqid == "p7") chunk_of["bridged"].insert(c);
    }
  }
  EXPECT_EQ(chunk_of["bridged"].size(), 1u);  // p0 and p7 kept together
}

TEST(SplitComponentAtomic, ValidatesN) {
  EXPECT_THROW(b2c3::split_hits_component_atomic({}, 0), common::InvalidArgument);
}

TEST(Split, HeavyTailedLoadStillAtomic) {
  // One protein holds half of all hits: it must land whole in one chunk,
  // and that chunk dominates the load (the n=10 straggler effect from the
  // paper's Fig. 4).
  std::vector<align::TabularHit> hits;
  for (int i = 0; i < 500; ++i) hits.push_back(hit(common::cat({"t", std::to_string(i)}), "big"));
  for (int i = 500; i < 1000; ++i) {
    hits.push_back(hit(common::cat({"t", std::to_string(i)}),
                       common::cat({"p", std::to_string(i % 37)})));
  }
  const auto chunks = split_hits(hits, 8);
  std::size_t max_chunk = 0;
  for (const auto& chunk : chunks) max_chunk = std::max(max_chunk, chunk.size());
  EXPECT_GE(max_chunk, 500u);
}

}  // namespace
}  // namespace pga::b2c3
