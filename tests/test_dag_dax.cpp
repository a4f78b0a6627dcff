// Tests for the Pegasus DAX importer.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "dag/analysis.h"
#include "dag/dax.h"
#include "sim/driver.h"
#include "util/check.h"

namespace wire::dag {
namespace {

/// A miniature Montage-style DAX in the synthetic-gallery dialect.
const char* kSampleDax = R"(<?xml version="1.0" encoding="UTF-8"?>
<!-- generated: 2014-01-01 -->
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="2.1"
      name="miniMontage" jobCount="6" fileCount="0" childCount="4">
  <job id="ID00000" namespace="mont" name="mProjectPP" version="1.0" runtime="13.59">
    <uses file="a.fits" link="input" register="true" transfer="true" size="1048576"/>
    <uses file="a.proj" link="output" register="true" transfer="true" size="2097152"/>
  </job>
  <job id="ID00001" namespace="mont" name="mProjectPP" version="1.0" runtime="14.20">
    <uses file="b.fits" link="input" size="1048576"/>
    <uses file="b.proj" link="output" size="2097152"/>
  </job>
  <job id="ID00002" namespace="mont" name="mDiffFit" version="1.0" runtime="4.25">
    <uses file="a.proj" link="input" size="2097152"/>
    <uses file="b.proj" link="input" size="2097152"/>
    <uses file="d.fit" link="output" size="512"/>
  </job>
  <job id="ID00003" namespace="mont" name="mConcatFit" version="1.0" runtime="42.0"/>
  <job id="ID00004" namespace="mont" name="mBackground" version="1.0" runtime="7.5"/>
  <job id="ID00005" namespace="mont" name="mBackground" version="1.0" runtime="8.5"/>
  <child ref="ID00002">
    <parent ref="ID00000"/>
    <parent ref="ID00001"/>
  </child>
  <child ref="ID00003"><parent ref="ID00002"/></child>
  <child ref="ID00004"><parent ref="ID00003"/></child>
  <child ref="ID00005"><parent ref="ID00003"/></child>
</adag>
)";

TEST(Dax, ParsesJobsStagesAndEdges) {
  const Workflow wf = dax_from_string(kSampleDax);
  EXPECT_EQ(wf.name(), "miniMontage");
  EXPECT_EQ(wf.task_count(), 6u);
  // One stage per transformation: mProjectPP, mDiffFit, mConcatFit,
  // mBackground.
  EXPECT_EQ(wf.stage_count(), 4u);
  EXPECT_EQ(wf.stage_tasks(0).size(), 2u);  // two projections
  EXPECT_EQ(wf.stage_tasks(3).size(), 2u);  // two backgrounds
  // Dependencies.
  EXPECT_EQ(wf.roots().size(), 2u);
  EXPECT_EQ(wf.sinks().size(), 2u);
  const auto diff_preds = wf.predecessors(wf.stage_tasks(1)[0]);
  EXPECT_EQ(diff_preds.size(), 2u);
}

TEST(Dax, ReadsRuntimesAndSizes) {
  const Workflow wf = dax_from_string(kSampleDax);
  const TaskSpec& proj = wf.task(wf.stage_tasks(0)[0]);
  EXPECT_DOUBLE_EQ(proj.ref_exec_seconds, 13.59);
  EXPECT_DOUBLE_EQ(proj.input_mb, 1.0);   // 1 MiB input
  EXPECT_DOUBLE_EQ(proj.output_mb, 2.0);  // 2 MiB output
  const TaskSpec& diff = wf.task(wf.stage_tasks(1)[0]);
  EXPECT_DOUBLE_EQ(diff.input_mb, 4.0);  // both projections' outputs
  // Self-closing job without uses: zero data.
  const TaskSpec& concat = wf.task(wf.stage_tasks(2)[0]);
  EXPECT_DOUBLE_EQ(concat.input_mb, 0.0);
  EXPECT_DOUBLE_EQ(concat.ref_exec_seconds, 42.0);
}

TEST(Dax, ImportedWorkflowRunsUnderWire) {
  const Workflow wf = dax_from_string(kSampleDax);
  core::WireController controller;
  sim::CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 60.0;
  sim::RunOptions options;
  options.initial_instances = 1;
  const sim::RunResult r = sim::simulate(wf, controller, config, options);
  for (const sim::TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

TEST(Dax, JobOrderIndependence) {
  // Children may be declared before their parents appear in the <child>
  // list; the importer topologically orders them.
  const char* reversed = R"(<adag name="rev">
    <job id="B" name="t2" runtime="1.0"/>
    <job id="A" name="t1" runtime="2.0"/>
    <child ref="B"><parent ref="A"/></child>
  </adag>)";
  const Workflow wf = dax_from_string(reversed);
  ASSERT_EQ(wf.task_count(), 2u);
  // Task "A" must precede "B" in the built DAG.
  const TaskId a = wf.roots()[0];
  EXPECT_EQ(wf.task_name(a), "A");
  EXPECT_EQ(wf.successors(a).size(), 1u);
}

TEST(Dax, RejectsMalformedDocuments) {
  EXPECT_THROW(dax_from_string("not xml at all"), DaxParseError);
  EXPECT_THROW(dax_from_string("<adag name='x'></adag>"),
               DaxParseError);  // no jobs
  EXPECT_THROW(dax_from_string(
                   "<adag><job id='a' name='t'/></adag>"),  // no runtime
               DaxParseError);
  EXPECT_THROW(
      dax_from_string("<adag><job id='a' name='t' runtime='1'/>"
                      "<job id='a' name='t' runtime='1'/></adag>"),
      DaxParseError);  // duplicate id
  EXPECT_THROW(
      dax_from_string("<adag><job id='a' name='t' runtime='1'/>"
                      "<child ref='a'><parent ref='zz'/></child></adag>"),
      DaxParseError);  // unknown parent
  EXPECT_THROW(
      dax_from_string(
          "<adag><job id='a' name='t' runtime='1'/>"
          "<job id='b' name='t' runtime='1'/>"
          "<child ref='a'><parent ref='b'/></child>"
          "<child ref='b'><parent ref='a'/></child></adag>"),
      DaxParseError);  // cycle
}

TEST(Dax, RejectsTruncatedAndBrokenXml) {
  // Truncated mid-tag: never a silent partial workflow.
  EXPECT_THROW(dax_from_string("<adag name='x'><job id='a' name='t"),
               DaxParseError);
  EXPECT_THROW(dax_from_string("<adag><!-- unterminated comment"),
               DaxParseError);
  EXPECT_THROW(dax_from_string("<adag><job id='a' name='t' runtime='1"
                               "/></adag>"),  // quote never closed
               DaxParseError);
  EXPECT_THROW(dax_from_string("<adag><job id=a name='t' runtime='1'/>"
                               "</adag>"),  // unquoted attribute
               DaxParseError);
  EXPECT_THROW(dax_from_string("<adag><job id='a' name='t' runtime='abc'/>"
                               "</adag>"),  // non-numeric runtime
               DaxParseError);
  EXPECT_THROW(dax_from_string("<adag><job id='a' name='t' runtime='1x'/>"
                               "</adag>"),  // trailing garbage in number
               DaxParseError);
  // A <child> naming a job that does not exist is an edge to nowhere even
  // without <parent> rows inside it.
  EXPECT_THROW(dax_from_string("<adag><job id='a' name='t' runtime='1'/>"
                               "<child ref='zz'/></adag>"),
               DaxParseError);
  // <parent> outside any <child>.
  EXPECT_THROW(dax_from_string("<adag><job id='a' name='t' runtime='1'/>"
                               "<parent ref='a'/></adag>"),
               DaxParseError);
}

TEST(Dax, ParseErrorsCarrySourceAndLineContext) {
  const char* doc =
      "<adag name='x'>\n"
      "  <job id='a' name='t' runtime='1'/>\n"
      "  <job id='a' name='t' runtime='1'/>\n"
      "</adag>\n";
  try {
    dax_from_string(doc, "broken.dax");
    FAIL() << "expected DaxParseError";
  } catch (const DaxParseError& e) {
    const std::string msg = e.what();
    // Duplicate is on line 3; the message names the file, the line, and the
    // first definition.
    EXPECT_NE(msg.find("broken.dax:3:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate job id a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  // Document-level errors carry the source without a line.
  try {
    dax_from_string("<adag name='x'></adag>", "empty.dax");
    FAIL() << "expected DaxParseError";
  } catch (const DaxParseError& e) {
    EXPECT_NE(std::string(e.what()).find("empty.dax: "), std::string::npos);
  }
}

TEST(Dax, HandlesCommentsAndDeclarations) {
  const char* doc = R"(<?xml version="1.0"?>
    <!-- a comment with <job id="fake" name="x" runtime="9"/> inside -->
    <adag name="c"><job id="a" name="t" runtime="3.0"/></adag>)";
  const Workflow wf = dax_from_string(doc);
  EXPECT_EQ(wf.task_count(), 1u);
  EXPECT_DOUBLE_EQ(wf.task(0).ref_exec_seconds, 3.0);
}

}  // namespace
}  // namespace wire::dag
