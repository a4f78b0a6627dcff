// Multi-tenant quickstart: a Poisson stream of workflow jobs sharing one
// simulated cloud site, partitioned by the site arbiter, each job autoscaled
// by its own WIRE controller. Prints the per-job outcome table and compares
// the four arbiter strategies on the same stream.
#include <cstdio>

#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "rejected_input.h"
#include "workload/profiles.h"

int main() try {
  using namespace wire;

  // 1. The workflow catalogue jobs are drawn from: three Table-I profiles.
  std::vector<workload::WorkflowProfile> profiles = {
      workload::tpch1_profile(workload::Scale::Small),
      workload::tpch6_profile(workload::Scale::Small),
      workload::pagerank_profile(workload::Scale::Small),
  };

  // 2. A deterministic Poisson stream: 12 jobs, one every ~20 minutes.
  ensemble::PoissonArrivalConfig stream;
  stream.mean_interarrival_seconds = 1200.0;
  stream.job_count = 12;
  stream.seed = 42;
  const ensemble::ArrivalProcess arrivals =
      ensemble::ArrivalProcess::poisson(stream, profiles.size());

  // 3. One shared §IV-B site: 12 instances, 4 slots each, 15-minute units.
  const sim::CloudConfig site = exp::paper_cloud(900.0);

  // 4. Run the same stream under each arbiter strategy; every job gets its
  //    own WIRE controller, capped by its arbiter share.
  for (ensemble::ArbiterStrategy strategy : ensemble::all_strategies()) {
    ensemble::EnsembleOptions options;
    options.strategy = strategy;
    options.site_cap = site.max_instances;

    ensemble::EnsembleDriver driver(
        profiles, arrivals, exp::sharded_policy_factory(exp::PolicyKind::Wire), site,
        options);
    const ensemble::EnsembleReport report = driver.run();
    std::printf("%s\n", report.render().c_str());
  }
  return 0;
} catch (const wire::util::ContractViolation& e) {
  return wire::examples::reject(e);
} catch (const wire::dag::DaxParseError& e) {
  return wire::examples::reject(e);
}
