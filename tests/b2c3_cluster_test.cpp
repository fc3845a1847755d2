#include "b2c3/cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace pga::b2c3 {
namespace {

align::TabularHit hit(const std::string& q, const std::string& s, double bits,
                      double evalue = 1e-20) {
  align::TabularHit h;
  h.qseqid = q;
  h.sseqid = s;
  h.bitscore = bits;
  h.evalue = evalue;
  h.pident = 95;
  h.length = 100;
  return h;
}

TEST(Cluster, EmptyHits) {
  const auto set = cluster_by_best_hit({});
  EXPECT_TRUE(set.clusters.empty());
  EXPECT_EQ(set.total_transcripts(), 0u);
  EXPECT_EQ(set.largest_cluster(), 0u);
}

TEST(Cluster, GroupsByProtein) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pA", 100),
      hit("t2", "pA", 90),
      hit("t3", "pB", 80),
  });
  ASSERT_EQ(set.clusters.size(), 2u);
  EXPECT_EQ(set.clusters[0].protein_id, "pA");
  EXPECT_EQ(set.clusters[0].transcripts, (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(set.clusters[1].protein_id, "pB");
  EXPECT_EQ(set.clusters[1].transcripts, (std::vector<std::string>{"t3"}));
}

TEST(Cluster, BestHitWinsByBitscore) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pA", 50),
      hit("t1", "pB", 100),  // stronger
  });
  ASSERT_EQ(set.clusters.size(), 1u);
  EXPECT_EQ(set.clusters[0].protein_id, "pB");
}

TEST(Cluster, BitscoreTieBrokenByEvalue) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pA", 100, 1e-10),
      hit("t1", "pB", 100, 1e-30),  // lower E-value wins
  });
  ASSERT_EQ(set.clusters.size(), 1u);
  EXPECT_EQ(set.clusters[0].protein_id, "pB");
}

TEST(Cluster, FullTieBrokenLexicographically) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pB", 100, 1e-20),
      hit("t1", "pA", 100, 1e-20),
  });
  ASSERT_EQ(set.clusters.size(), 1u);
  EXPECT_EQ(set.clusters[0].protein_id, "pA");
}

TEST(Cluster, ResultIsPartition) {
  // Random hits: every transcript must appear in exactly one cluster.
  common::Rng rng(71);
  std::vector<align::TabularHit> hits;
  std::set<std::string> transcripts;
  for (int i = 0; i < 500; ++i) {
    const std::string q = common::cat({"t", std::to_string(rng.below(120))});
    const std::string s = common::cat({"p", std::to_string(rng.below(15))});
    hits.push_back(hit(q, s, static_cast<double>(rng.below(200))));
    transcripts.insert(q);
  }
  const auto set = cluster_by_best_hit(hits);
  std::set<std::string> seen;
  for (const auto& c : set.clusters) {
    for (const auto& t : c.transcripts) {
      EXPECT_TRUE(seen.insert(t).second) << "duplicate " << t;
    }
  }
  EXPECT_EQ(seen, transcripts);
  EXPECT_EQ(set.total_transcripts(), transcripts.size());
}

TEST(Cluster, ClustersSortedByProteinId) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pC", 10),
      hit("t2", "pA", 10),
      hit("t3", "pB", 10),
  });
  ASSERT_EQ(set.clusters.size(), 3u);
  EXPECT_EQ(set.clusters[0].protein_id, "pA");
  EXPECT_EQ(set.clusters[1].protein_id, "pB");
  EXPECT_EQ(set.clusters[2].protein_id, "pC");
}

TEST(Cluster, LargestCluster) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pA", 10),
      hit("t2", "pA", 10),
      hit("t3", "pA", 10),
      hit("t4", "pB", 10),
  });
  EXPECT_EQ(set.largest_cluster(), 3u);
}

TEST(Cluster, DuplicateHitLinesCollapse) {
  const auto set = cluster_by_best_hit({
      hit("t1", "pA", 10),
      hit("t1", "pA", 10),
  });
  ASSERT_EQ(set.clusters.size(), 1u);
  EXPECT_EQ(set.clusters[0].transcripts.size(), 1u);
}

TEST(SharedHitCluster, MultiDomainTranscriptBridgesProteins) {
  // t2 hits both pA and pB: everything collapses into one component
  // (labelled pA, the smallest protein id).
  const auto set = cluster_by_shared_hit({
      hit("t1", "pA", 100),
      hit("t2", "pA", 50),
      hit("t2", "pB", 90),
      hit("t3", "pB", 100),
  });
  ASSERT_EQ(set.clusters.size(), 1u);
  EXPECT_EQ(set.clusters[0].protein_id, "pA");
  EXPECT_EQ(set.clusters[0].transcripts,
            (std::vector<std::string>{"t1", "t2", "t3"}));
}

TEST(SharedHitCluster, BestHitWouldSplitTheSameInput) {
  const std::vector<align::TabularHit> hits{
      hit("t1", "pA", 100),
      hit("t2", "pA", 50),
      hit("t2", "pB", 90),  // best hit of t2 is pB
      hit("t3", "pB", 100),
  };
  EXPECT_EQ(cluster_by_best_hit(hits).clusters.size(), 2u);
  EXPECT_EQ(cluster_by_shared_hit(hits).clusters.size(), 1u);
}

TEST(SharedHitCluster, DisjointProteinsStaySeparate) {
  const auto set = cluster_by_shared_hit({
      hit("t1", "pA", 100),
      hit("t2", "pB", 100),
      hit("t3", "pC", 100),
  });
  ASSERT_EQ(set.clusters.size(), 3u);
  EXPECT_EQ(set.clusters[0].protein_id, "pA");
  EXPECT_EQ(set.clusters[2].protein_id, "pC");
}

TEST(SharedHitCluster, IsAPartition) {
  common::Rng rng(83);
  std::vector<align::TabularHit> hits;
  std::set<std::string> queries;
  for (int i = 0; i < 600; ++i) {
    const std::string q = common::cat({"t", std::to_string(rng.below(100))});
    hits.push_back(hit(q, common::cat({"p", std::to_string(rng.below(20))}),
                       static_cast<double>(rng.below(200))));
    queries.insert(q);
  }
  const auto set = cluster_by_shared_hit(hits);
  std::set<std::string> seen;
  for (const auto& c : set.clusters) {
    for (const auto& t : c.transcripts) {
      EXPECT_TRUE(seen.insert(t).second) << t;
    }
  }
  EXPECT_EQ(seen, queries);
}

TEST(SharedHitCluster, NeverFinerThanBestHit) {
  // Every best-hit cluster is contained in some shared-hit component.
  common::Rng rng(89);
  std::vector<align::TabularHit> hits;
  for (int i = 0; i < 400; ++i) {
    hits.push_back(hit(common::cat({"t", std::to_string(rng.below(80))}),
                       common::cat({"p", std::to_string(rng.below(15))}),
                       static_cast<double>(rng.below(300))));
  }
  const auto fine = cluster_by_best_hit(hits);
  const auto coarse = cluster_by_shared_hit(hits);
  EXPECT_GE(fine.clusters.size(), coarse.clusters.size());
  std::map<std::string, std::string> component_of;
  for (const auto& c : coarse.clusters) {
    for (const auto& t : c.transcripts) component_of[t] = c.protein_id;
  }
  for (const auto& c : fine.clusters) {
    std::set<std::string> components;
    for (const auto& t : c.transcripts) components.insert(component_of.at(t));
    EXPECT_EQ(components.size(), 1u) << "best-hit cluster " << c.protein_id
                                     << " split across components";
  }
}

TEST(SharedHitCluster, EmptyInput) {
  EXPECT_TRUE(cluster_by_shared_hit({}).clusters.empty());
}

}  // namespace
}  // namespace pga::b2c3
