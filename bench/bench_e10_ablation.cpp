// E10 -- ablation: how much does seed agreement actually buy?
//
// LBAlg's body-round choices (participant groups, the b index) come from
// seeds shared across a neighborhood.  The ablated variant draws the same
// distributions from *private* coins -- identical marginals, identical
// timing structure, no coordination.  The paper's analysis needs the
// coordination (it bounds the number of distinct schedules per neighborhood
// by delta); this experiment quantifies the empirical gap on contended
// neighborhoods and under a flooding adversary.
//
// Ported: the workload is the checked-in scenario file
// campaigns/e10_ablation.json (cliques of 9 and 33 under full-g and the
// 64-leaf contention star under full-gprime, each with
// algorithm.shared_seeds true and false, 20 trials per row); this binary
// runs it through the scn::CampaignRunner and prints the historical table,
// counting a trial that never delivered as horizon x phase rounds.  The
// numbers are bit-identical to the pre-port hand-written bench: same trial
// seeds (0xe10 + contenders + shared, 0xe10f + shared), same workload body.
#include <iostream>

#include "bench_support.h"
#include "scn/campaign.h"

int main() {
  using namespace dg;
  const std::string path = bench::campaign_file("e10_ablation.json");
  const auto parsed = scn::parse_campaign_file(path);
  if (!parsed.ok()) {
    std::cerr << parsed.error << "\n";
    return 2;
  }
  const auto result = scn::run_campaign(parsed.campaign, scn::RunOptions{});

  bench::print_header(
      "E10: seed-agreement ablation",
      "LBAlg vs an ablated variant drawing identical distributions from "
      "private coins\n(no neighborhood coordination).  The analysis requires "
      "coordination to bound the\nnumber of distinct schedules per "
      "neighborhood; this measures what it buys\nempirically.  Metric: "
      "progress latency at a contended receiver.\nScenario: " +
          path);

  Table table({"topology", "variant", "progress mean", "progress p90"});
  for (const auto& v : result.variants) {
    const scn::ScenarioSpec& spec = v.spec;
    std::vector<double> latencies;
    for (const auto& row : v.trials) {
      // row = {latency, phase length}; 0 = no reception within the horizon.
      latencies.push_back(row[0] != 0 ? row[0]
                                      : static_cast<double>(
                                            spec.algorithm.horizon_phases) *
                                            row[1]);
    }
    const auto summary = stats::Summary::of(latencies);
    table.row()
        .cell(spec.topology.type == "clique"
                  ? "clique k=" + std::to_string(spec.topology.k - 1)
                  : "unreliable star k=" + std::to_string(spec.topology.k) +
                        " (flooded)")
        .cell(spec.algorithm.shared_seeds ? "seeded (LBAlg)"
                                          : "ablated (private)")
        .cell(summary.mean, 1)
        .cell(summary.p90, 1);
  }
  bench::print_table(table);
  std::cout << "\nReading: both variants resist the oblivious adversary "
               "(randomized schedules are\nunpredictable either way), and on "
               "these benign/flooded workloads the ablated\nvariant is "
               "somewhat *faster* on cliques: shared seeds make whole groups "
               "go\nsilent together (correlated non-participation), which "
               "costs rounds.  What the\nseeds buy is not average-case speed "
               "but *analyzability*: Lemma C.1's proof\nneeds the number of "
               "distinct schedules per neighborhood bounded by delta, "
               "which\nonly the agreement provides -- the worst-case "
               "guarantee holds for every oblivious\nscheduler, not just the "
               "ones tried here.  Reported as measured.\n";
  return 0;
}
