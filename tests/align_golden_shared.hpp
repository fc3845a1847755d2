// Shared builders for the alignment/assembly golden fixtures.
//
// One source of truth for what the fixtures contain: the regenerator
// (bench/align_golden_gen) writes these cases into tests/golden/, and the
// byte-pinning suite (tests/golden_outputs_test.cpp) rebuilds them live
// and compares against the committed files. Any kernel rework (banded DP
// layouts, seed accumulators, parallel overlap phases) that changes a
// single hit, coordinate or consensus base fails tier-1 instead of
// silently drifting.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "align/blastx.hpp"
#include "align/tabular.hpp"
#include "assembly/cap3.hpp"
#include "bio/alphabet.hpp"
#include "bio/transcriptome.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace pga::golden {

inline std::string random_dna(std::size_t n, common::Rng& rng) {
  static constexpr std::string_view kBases = "ACGT";
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(kBases[rng.below(4)]);
  return s;
}

/// Overlapping fragments of a few synthetic genes — the assembler's input
/// shape, deterministic in `seed`.
inline std::vector<bio::SeqRecord> gene_fragments(std::size_t genes,
                                                  std::size_t fragments_per_gene,
                                                  std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<bio::SeqRecord> out;
  for (std::size_t g = 0; g < genes; ++g) {
    const std::string gene = random_dna(1200 + rng.below(600), rng);
    for (std::size_t f = 0; f < fragments_per_gene; ++f) {
      const std::size_t len = 400 + rng.below(500);
      const std::size_t start = rng.below(gene.size() - len + 1);
      out.push_back({common::cat({"g", std::to_string(g), "_f", std::to_string(f)}), "",
                     gene.substr(start, len)});
    }
  }
  return out;
}

inline std::string serialize_tabular(const std::vector<align::TabularHit>& hits) {
  std::string out;
  for (const auto& h : hits) {
    out += align::format_tabular(h);
    out += '\n';
  }
  return out;
}

/// Integer-only dump of an assembly: contig ids, members and consensus
/// bases, then singlet ids — everything the b2c3 merge step consumes.
inline std::string serialize_assembly(const assembly::AssemblyResult& result) {
  std::string out;
  for (const auto& c : result.contigs) {
    out += ">" + c.id;
    for (const auto& m : c.members) out += " " + m;
    out += '\n';
    out += c.consensus;
    out += '\n';
  }
  for (const auto& s : result.singlets) {
    out += "S " + s.id + '\n';
  }
  out += common::cat({"overlaps_considered ", std::to_string(result.overlaps_considered), "\n"});
  out += common::cat({"overlaps_applied ", std::to_string(result.overlaps_applied), "\n"});
  return out;
}

inline std::string serialize_overlaps(const std::vector<assembly::Overlap>& overlaps) {
  std::string out;
  for (const auto& ov : overlaps) {
    std::ostringstream line;
    line << ov.a << ' ' << ov.b << ' ' << static_cast<int>(ov.kind) << ' '
         << ov.shift << ' ' << (ov.flipped ? 1 : 0) << ' ' << ov.alignment.score
         << ' ' << ov.alignment.q_begin << ' ' << ov.alignment.q_end << ' '
         << ov.alignment.s_begin << ' ' << ov.alignment.s_end << ' '
         << ov.alignment.matches << ' ' << ov.alignment.mismatches << ' '
         << ov.alignment.gap_opens << ' ' << ov.alignment.gap_residues << '\n';
    out += line.str();
  }
  return out;
}

struct GoldenCase {
  std::string name;     ///< file name under tests/golden/
  std::string content;  ///< exact expected bytes
};

/// Builds every alignment/assembly fixture, in a fixed order.
inline std::vector<GoldenCase> build_golden_cases() {
  std::vector<GoldenCase> cases;

  // 1. Default-parameter BLASTX over a seeded transcriptome.
  {
    bio::TranscriptomeParams params;
    params.families = 8;
    params.protein_min = 80;
    params.protein_max = 160;
    params.seed = 42;
    const auto txm = bio::generate_transcriptome(params);
    const align::BlastxSearch search(txm.proteins);
    cases.push_back({"blastx_tabular_default_seed42.txt",
                     serialize_tabular(search.search_all(txm.transcripts))});
  }

  // 2. Multi-HSP mode (best_hit_per_subject off) on a second seed.
  {
    bio::TranscriptomeParams params;
    params.families = 6;
    params.protein_min = 80;
    params.protein_max = 140;
    params.seed = 7;
    const auto txm = bio::generate_transcriptome(params);
    align::BlastxParams bp;
    bp.best_hit_per_subject = false;
    const align::BlastxSearch search(txm.proteins, bp);
    cases.push_back({"blastx_tabular_multihsp_seed7.txt",
                     serialize_tabular(search.search_all(txm.transcripts))});
  }

  // 3. Assembly + raw overlap list over seeded gene fragments.
  {
    const auto seqs = gene_fragments(3, 16, 2);
    cases.push_back({"overlaps_fragments_seed2.txt",
                     serialize_overlaps(assembly::find_overlaps(seqs))});
    cases.push_back({"cap3_fragments_seed2.txt",
                     serialize_assembly(assembly::assemble(seqs))});
  }

  // 4. Strand-agnostic assembly (both_strands on, every other fragment
  // reverse-complemented).
  {
    auto seqs = gene_fragments(2, 12, 9);
    for (std::size_t i = 0; i < seqs.size(); i += 2) {
      seqs[i].seq = bio::reverse_complement(seqs[i].seq);
    }
    assembly::AssemblyOptions opt;
    opt.overlap.both_strands = true;
    cases.push_back({"cap3_bothstrands_seed9.txt",
                     serialize_assembly(assembly::assemble(seqs, opt))});
  }

  return cases;
}

}  // namespace pga::golden
