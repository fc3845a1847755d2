// Real end-to-end execution of the blast2cap3 workflow.
//
// Binds each workflow transformation to its actual C++ implementation
// (b2c3::tasks) over files in a workspace directory, then lets the DAGMan
// engine drive it on a thread pool. This is the proof that the workflow
// glue is real: the same DAX that the simulator times also produces a real
// assembly from real FASTA/tabular inputs.
#pragma once

#include <filesystem>

#include "assembly/cap3.hpp"
#include "b2c3/cluster.hpp"
#include "core/b2c3_workflow.hpp"
#include "wms/engine.hpp"
#include "wms/statistics.hpp"

namespace pga::core {

/// Configuration for a local run.
struct LocalRunConfig {
  std::filesystem::path workspace;  ///< scratch dir (must exist); LFNs live here
  std::size_t n = 4;                ///< split width
  std::size_t slots = 4;            ///< thread-pool workers
  int retries = 2;                  ///< engine retry budget
  assembly::AssemblyOptions assembly{};
  /// Clustering rule applied by the run_cap3 tasks (and the matching
  /// atomic split).
  b2c3::ClusterPolicy policy = b2c3::ClusterPolicy::kBestHit;
  /// Optional live progress board (pegasus-status); must outlive the run.
  wms::StatusBoard* status = nullptr;
};

/// Outcome of a local run.
struct LocalRunResult {
  wms::RunReport report;
  wms::WorkflowStatistics stats;
  std::filesystem::path output;  ///< the produced assembly.fasta
};

/// Plans the Fig. 2 workflow for n chunks and really executes it:
/// stage-in copies the inputs into the workspace, every task reads/writes
/// workspace files, stage-out leaves assembly.fasta in place.
LocalRunResult run_blast2cap3_locally(const std::filesystem::path& transcripts_fasta,
                                      const std::filesystem::path& alignments_out,
                                      const LocalRunConfig& config);

}  // namespace pga::core
