// Builders for the blast2cap3 scientific workflow (Fig. 2 and Fig. 3).
//
// One function produces the abstract DAX; companions set up the
// transformation and replica catalogs and plan the concrete workflow on the
// paper's two sites (workload::generator_site_catalog) the way the paper did:
// the Sandhills plan uses preinstalled software; the OSG plan carries a
// download/install step on every compute task (the red rectangles).
#pragma once

#include <cstddef>
#include <string>

#include "core/workload.hpp"
#include "wms/catalog.hpp"
#include "wms/dax.hpp"
#include "wms/planner.hpp"

namespace pga::core {

/// The workflow's external inputs and its final output (logical names).
inline constexpr char kTranscriptsLfn[] = "transcripts.fasta";
inline constexpr char kAlignmentsLfn[] = "alignments.out";
inline constexpr char kAssemblyLfn[] = "assembly.fasta";

/// Parameters of the workflow instance.
struct B2c3WorkflowSpec {
  std::size_t n = 300;  ///< number of clusters of transcripts ("n" in §VI)
};

/// Builds the abstract blast2cap3 workflow with cost hints drawn from
/// `workload` (pass nullptr for no hints — e.g. when binding real
/// callables for local execution):
///
///   create_transcripts_list --+
///                             +--> run_cap3_i (x n) --> merge_joined --+
///   create_alignments_list -> split                                    +--> final_merge
///                             +-----------------------> find_unjoined -+
wms::AbstractWorkflow build_blast2cap3_dax(const B2c3WorkflowSpec& spec,
                                           const WorkloadModel* workload = nullptr);

/// Registers every blast2cap3 transformation for both sites (installed on
/// sandhills, stageable on osg).
wms::TransformationCatalog paper_transformation_catalog();

/// Registers the two input files at the "local" submit host.
wms::ReplicaCatalog paper_replica_catalog(const B2c3WorkflowSpec& spec = {});

/// Plans the workflow for one of the paper's sites ("sandhills" or "osg"),
/// taken from workload::generator_site_catalog().
wms::ConcreteWorkflow plan_for_site(const wms::AbstractWorkflow& dax,
                                    const std::string& site,
                                    const B2c3WorkflowSpec& spec = {},
                                    std::size_t cluster_factor = 1);

}  // namespace pga::core
