#include "core/local_run.hpp"

#include "b2c3/splitter.hpp"
#include "b2c3/tasks.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/strings.hpp"
#include "wms/exec_service.hpp"
#include "wms/kickstart.hpp"

namespace pga::core {

namespace fs = std::filesystem;

LocalRunResult run_blast2cap3_locally(const fs::path& transcripts_fasta,
                                      const fs::path& alignments_out,
                                      const LocalRunConfig& config) {
  if (!fs::exists(config.workspace)) {
    throw common::InvalidArgument("workspace does not exist: " +
                                  config.workspace.string());
  }
  const B2c3WorkflowSpec spec{.n = config.n};
  const auto dax = build_blast2cap3_dax(spec, /*workload=*/nullptr);
  const auto concrete = plan_for_site(dax, "sandhills", spec);

  const fs::path ws = config.workspace;
  const auto lfn = [&ws](const std::string& name) { return ws / name; };

  const auto runner = [&, spec](const wms::ConcreteJob& job) {
    if (job.kind == wms::JobKind::kStageIn) {
      fs::copy_file(transcripts_fasta, lfn(kTranscriptsLfn),
                    fs::copy_options::overwrite_existing);
      fs::copy_file(alignments_out, lfn(kAlignmentsLfn),
                    fs::copy_options::overwrite_existing);
      return;
    }
    if (job.kind == wms::JobKind::kStageOut) {
      return;  // outputs already live in the workspace
    }
    if (job.transformation == "create_list") {
      if (job.args.at(0) == kTranscriptsLfn) {
        b2c3::make_transcript_dict(lfn(kTranscriptsLfn),
                                   lfn("transcripts_dict.txt"));
      } else {
        b2c3::make_alignment_list(lfn(kAlignmentsLfn),
                                  lfn("alignments_list.txt"));
      }
      return;
    }
    if (job.transformation == "split_alignments") {
      b2c3::split_alignment_file(lfn("alignments_list.txt"), ws, spec.n, "protein",
                                 config.policy);
      return;
    }
    if (job.transformation == "run_cap3") {
      // args[0] = "protein_<i>.txt".
      const std::string& chunk_file = job.args.at(0);
      const auto underscore = chunk_file.rfind('_');
      const auto dot = chunk_file.rfind('.');
      const std::string index = chunk_file.substr(underscore + 1, dot - underscore - 1);
      b2c3::run_cap3_chunk(lfn("transcripts_dict.txt"), lfn(chunk_file),
                           lfn("joined_" + index + ".fasta"),
                           lfn("members_" + index + ".txt"), "c" + index,
                           config.assembly, config.policy);
      return;
    }
    if (job.transformation == "merge_joined") {
      std::vector<fs::path> joined;
      for (std::size_t i = 0; i < spec.n; ++i) {
        joined.push_back(lfn("joined_" + std::to_string(i) + ".fasta"));
      }
      b2c3::merge_joined(joined, lfn("joined.fasta"));
      return;
    }
    if (job.transformation == "find_unjoined") {
      std::vector<fs::path> members;
      for (std::size_t i = 0; i < spec.n; ++i) {
        members.push_back(lfn("members_" + std::to_string(i) + ".txt"));
      }
      b2c3::find_unjoined(lfn("transcripts_dict.txt"), members, lfn("unjoined.fasta"));
      return;
    }
    if (job.transformation == "final_merge") {
      b2c3::concat_final(lfn("joined.fasta"), lfn("unjoined.fasta"),
                         lfn(kAssemblyLfn));
      return;
    }
    throw common::WorkflowError("no local binding for transformation " +
                                job.transformation);
  };

  wms::LocalService service(config.slots, runner);
  wms::DagmanEngine engine(wms::EngineOptions{.retries = config.retries,
                                              .rescue_path = ws / "rescue.dag",
                                              .status = config.status});
  LocalRunResult result;
  result.report = engine.run(concrete, service);
  result.stats = wms::WorkflowStatistics::from_run(result.report);
  result.output = lfn(kAssemblyLfn);
  // Provenance, like the real stack leaves behind in the submit
  // directory: one kickstart invocation record per attempt, plus the
  // DAGMan jobstate log.
  const fs::path records = ws / "kickstart";
  fs::create_directories(records);
  wms::write_invocation_records(result.report, records);
  common::write_file(ws / "jobstate.log",
                     common::join(result.report.jobstate_log, "\n") + "\n");
  return result;
}

}  // namespace pga::core
