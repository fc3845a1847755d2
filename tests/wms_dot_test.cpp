#include "wms/dot.hpp"

#include <gtest/gtest.h>

#include "core/b2c3_workflow.hpp"

namespace pga::wms {
namespace {

TEST(Dot, AbstractWorkflowContainsAllNodesAndEdges) {
  const auto wf = core::build_blast2cap3_dax(core::B2c3WorkflowSpec{.n = 3});
  const std::string dot = to_dot(wf);
  EXPECT_NE(dot.find("digraph \"blast2cap3-n3\""), std::string::npos);
  for (const auto& job : wf.jobs()) {
    EXPECT_NE(dot.find("\"" + job.id + "\""), std::string::npos) << job.id;
  }
  EXPECT_NE(dot.find("\"split\" -> \"run_cap3_0\""), std::string::npos);
  EXPECT_NE(dot.find("\"run_cap3_2\" -> \"merge_joined\""), std::string::npos);
  // Edge count: every "->" line corresponds to one dependency.
  std::size_t edges = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 2)) {
    ++edges;
  }
  EXPECT_EQ(edges, wf.edge_count());
}

TEST(Dot, ConcretePlanMarksOsgSetupTasksRed) {
  const core::B2c3WorkflowSpec spec{.n = 2};
  const auto dax = core::build_blast2cap3_dax(spec);
  const auto osg = core::plan_for_site(dax, "osg", spec);
  const std::string dot = to_dot(osg);
  EXPECT_NE(dot.find("color=red"), std::string::npos);  // Fig. 3 rectangles
  EXPECT_NE(dot.find("parallelogram"), std::string::npos);  // transfers

  const auto sandhills = core::plan_for_site(dax, "sandhills", spec);
  EXPECT_EQ(to_dot(sandhills).find("color=red"), std::string::npos);
}

TEST(Dot, EscapesQuotesInNames) {
  AbstractWorkflow wf("has \"quotes\"");
  AbstractJob job;
  job.id = "a";
  job.transformation = std::string("t");
  wf.add_job(job);
  const std::string dot = to_dot(wf);
  EXPECT_NE(dot.find("\\\"quotes\\\""), std::string::npos);
}

}  // namespace
}  // namespace pga::wms
