#include "workflow/workflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workflow/topology.hpp"

namespace woha::wf {
namespace {

WorkflowSpec two_job_chain() {
  WorkflowSpec spec;
  spec.name = "chain";
  spec.jobs = {JobSpec{.name = "a", .prerequisites = {}},
               JobSpec{.name = "b", .prerequisites = {0}}};
  return spec;
}

TEST(Workflow, ValidSpecPasses) {
  const auto spec = two_job_chain();
  EXPECT_NO_THROW(validate(spec));
  EXPECT_TRUE(is_valid(spec));
}

TEST(Workflow, RejectsEmptyWorkflow) {
  WorkflowSpec spec;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, RejectsZeroTaskJob) {
  auto spec = two_job_chain();
  spec.jobs[0].num_maps = 0;
  spec.jobs[0].num_reduces = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, RejectsNonPositiveDurations) {
  auto spec = two_job_chain();
  spec.jobs[0].map_duration = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec = two_job_chain();
  spec.jobs[0].num_reduces = 2;
  spec.jobs[0].reduce_duration = -5;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, RejectsSelfDependency) {
  auto spec = two_job_chain();
  spec.jobs[0].prerequisites = {0};
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, RejectsOutOfRangePrerequisite) {
  auto spec = two_job_chain();
  spec.jobs[1].prerequisites = {5};
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, RejectsCycle) {
  auto spec = two_job_chain();
  spec.jobs[0].prerequisites = {1};  // a <-> b
  EXPECT_THROW(validate(spec), std::invalid_argument);
  EXPECT_FALSE(is_valid(spec));
}

TEST(Workflow, RejectsLongerCycle) {
  WorkflowSpec spec;
  spec.jobs.resize(3);
  spec.jobs[0].name = "a";
  spec.jobs[1].name = "b";
  spec.jobs[2].name = "c";
  spec.jobs[1].prerequisites = {0};
  spec.jobs[2].prerequisites = {1};
  spec.jobs[0].prerequisites = {2};
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, RejectsNegativeDeadline) {
  auto spec = two_job_chain();
  spec.relative_deadline = -1;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(Workflow, DeadlineComputation) {
  auto spec = two_job_chain();
  spec.submit_time = 1000;
  spec.relative_deadline = 5000;
  EXPECT_EQ(spec.deadline(), 6000);
  spec.relative_deadline = 0;
  EXPECT_EQ(spec.deadline(), kTimeInfinity);
}

TEST(Workflow, TotalTasksSumsJobs) {
  auto spec = two_job_chain();
  spec.jobs[0].num_maps = 3;
  spec.jobs[0].num_reduces = 2;
  spec.jobs[1].num_maps = 1;
  spec.jobs[1].num_reduces = 0;
  EXPECT_EQ(spec.total_tasks(), 6u);
  EXPECT_EQ(spec.jobs[0].total_tasks(), 5u);
}

TEST(Workflow, DependentsInvertPrerequisites) {
  const auto spec = diamond(3);
  const auto deps = dependents(spec);
  // source (0) feeds the three branches.
  EXPECT_EQ(deps[0], (std::vector<std::uint32_t>{1, 2, 3}));
  // each branch feeds the sink (4).
  for (std::uint32_t b = 1; b <= 3; ++b) {
    EXPECT_EQ(deps[b], (std::vector<std::uint32_t>{4}));
  }
  EXPECT_TRUE(deps[4].empty());
}

TEST(Workflow, TopologicalOrderRespectsEdges) {
  const auto spec = paper_fig7_topology();
  const auto order = topological_order(spec);
  ASSERT_EQ(order.size(), spec.jobs.size());
  std::vector<std::uint32_t> position(order.size());
  for (std::uint32_t pos = 0; pos < order.size(); ++pos) position[order[pos]] = pos;
  for (std::uint32_t j = 0; j < spec.jobs.size(); ++j) {
    for (std::uint32_t p : spec.jobs[j].prerequisites) {
      EXPECT_LT(position[p], position[j]);
    }
  }
  // It is a permutation.
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
}

TEST(Workflow, InitialJobsHaveNoPrereqs) {
  const auto spec = paper_fig7_topology();
  const auto init = initial_jobs(spec);
  ASSERT_FALSE(init.empty());
  for (std::uint32_t j : init) EXPECT_TRUE(spec.jobs[j].prerequisites.empty());
  // Everything else has prerequisites.
  std::size_t with_prereqs = 0;
  for (const auto& job : spec.jobs) with_prereqs += !job.prerequisites.empty();
  EXPECT_EQ(with_prereqs + init.size(), spec.jobs.size());
}

TEST(Workflow, SerialLength) {
  JobSpec job;
  job.num_maps = 5;
  job.num_reduces = 2;
  job.map_duration = 100;
  job.reduce_duration = 300;
  EXPECT_EQ(job.serial_length(), 400);
  job.num_reduces = 0;
  EXPECT_EQ(job.serial_length(), 100);
}

}  // namespace
}  // namespace woha::wf
