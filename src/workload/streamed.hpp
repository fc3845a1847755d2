// Streamed, pattern-compressed materialization of generated concrete
// workflows — the n=10^7 build path.
//
// plan_shape() is general but strings its way through an AbstractWorkflow:
// file-use lists, workflow_inputs scans, per-edge id lookups. For the
// regular shapes the whole concrete workflow is a closed form, so this
// builder emits it directly: begin_bulk() hands out the pre-sized job
// array, a ThreadPool::parallel_for fills the worker span in deterministic
// chunks (plain field writes into disjoint slots), finish_bulk() interns
// ids sequentially, and the 4n regular edges land as 4 EdgePatterns. The
// result is byte-identical to plan_shape(spec, site) — the identity tests
// in tests/wms_golden_log_test.cpp pin jobs, edges, adjacency and engine
// logs against the planner path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wms/planner.hpp"
#include "workload/generator.hpp"

namespace pga::common {
class ThreadPool;
}

namespace pga::workload {

/// Knobs for build_concrete_streamed.
struct StreamedBuildOptions {
  std::string site;  ///< "sandhills" or "osg" (generator_site_catalog)
  /// Emit the regular edge families as patterns (O(1) storage) instead of
  /// materialized lists. Adjacency is identical either way.
  bool edge_patterns = true;
  /// Fills the worker span in parallel when set; sequential when null.
  common::ThreadPool* pool = nullptr;
  /// Jobs per parallel_for chunk (chunking is deterministic in n alone).
  std::size_t chunk = 65536;
};

/// Build-phase timing/shape breakdown, for the scale bench's JSON.
struct StreamedBuildStats {
  double model_seconds = 0;   ///< cost-model construction
  double fill_seconds = 0;    ///< bulk struct fill (the parallel span)
  double intern_seconds = 0;  ///< sequential id interning (finish_bulk)
  double wire_seconds = 0;    ///< edges/patterns + stage-job pricing
  std::size_t jobs = 0;
  std::size_t explicit_edges = 0;
  std::size_t pattern_edges = 0;
};

/// Materializes plan_shape(spec, options.site) without the abstract
/// intermediate. Byte-identical output. Only blast2cap3 (the scale
/// bench's shape) has a streamed closed form: other shapes throw
/// InvalidArgument, unknown sites WorkflowError.
[[nodiscard]] wms::ConcreteWorkflow build_concrete_streamed(
    const ShapeSpec& spec, const StreamedBuildOptions& options,
    StreamedBuildStats* stats = nullptr);

}  // namespace pga::workload
