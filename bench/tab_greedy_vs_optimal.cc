// §3.2 reproduction (greedy CSP): the paper copes with the NP-complete
// optimal-configuration problem using a greedy algorithm. This table sweeps
// ROM budgets over the FAME-DBMS model and compares the greedy derivation
// against the exhaustive optimum: achieved utility, budget adherence, and
// search effort (candidates evaluated).
#include <cstdio>

#include "featuremodel/fame_model.h"
#include "nfp/optimizer.h"

using namespace fame;
using namespace fame::nfp;

namespace {

/// Extension features the cost table below does not price. Pinning them
/// off leaves the 14,994 variants that the repository samples and the
/// exhaustive optimum searches.
constexpr const char* kUnpriced[] = {
    "Scrub",  "Verify",      "Repair",      "Concurrency", "Observability",
    "Backup", "Replication", "ReverseScan", "Mvcc"};

/// Synthetic but structured repository: per-feature ROM costs in KB,
/// loosely shaped like the measured variant matrix (minimal product ~40 KB,
/// transactions are the most expensive feature).
StatusOr<FeedbackRepository> BuildRepo(const fm::FeatureModel& model,
                                       const fm::Configuration& priced) {
  const std::map<std::string, double> cost_kb = {
      {"Put", 2},        {"Remove", 3},      {"Update", 3},
      {"BTree-Update", 2}, {"BTree-Remove", 4}, {"B+-Tree", 18},
      {"List", 6},       {"Transaction", 34}, {"Locking", 8},
      {"WAL-Redo", 6},   {"Force-Commit", 2}, {"API", 9},
      {"SQL-Engine", 28}, {"Optimizer", 7},   {"LFU", 2},
      {"Clock", 2},      {"String-Types", 3}, {"Blob-Types", 3},
  };
  FeedbackRepository repo;
  // Measure a sample of variants (a realistically partial repository).
  size_t i = 0;
  FAME_RETURN_IF_ERROR(
      model.ForEachVariant(priced, [&](const fm::Configuration& v) {
        if (++i % 23 != 0) return true;
        MeasuredProduct mp;
        mp.features = v.SelectedNames();
        double kb = 40;
        for (const std::string& f : mp.features) {
          auto it = cost_kb.find(f);
          if (it != cost_kb.end()) kb += it->second;
        }
        mp.values[NfpKind::kBinarySize] = kb;
        repo.Add(std::move(mp));
        return true;
      }));
  return repo;
}

}  // namespace

int main() {
  auto model = fm::BuildFameDbmsModel();
  fm::Configuration priced(model.get());
  for (const char* f : kUnpriced) {
    if (!priced.ExcludeByName(f).ok()) return 1;
  }
  auto repo_or = BuildRepo(*model, priced);
  if (!repo_or.ok()) {
    std::fprintf(stderr, "repository: %s\n",
                 repo_or.status().ToString().c_str());
    return 1;
  }
  const FeedbackRepository& repo = *repo_or;
  std::printf("greedy vs exhaustive product derivation on the FAME-DBMS "
              "model\n(%zu measured products in the feedback repository)\n\n",
              repo.size());

  DerivationRequest base;
  base.utility = {{"Transaction", 10}, {"SQL-Engine", 8}, {"Optimizer", 3},
                  {"Update", 4},       {"Remove", 4},     {"API", 5},
                  {"Locking", 2},      {"String-Types", 2}};

  std::printf("%-12s %14s %14s %8s %12s %12s\n", "ROM budget", "greedy util",
              "optimal util", "ratio", "greedy evals", "exact evals");

  int pass = 0, fail = 0;
  bool all_within_budget = true, never_beats = true, cheaper_search = true;
  double worst_ratio = 1.0, ratio_sum = 0;
  int ratio_count = 0;
  for (double budget_kb : {45, 60, 75, 90, 110, 130, 160}) {
    DerivationRequest req = base;
    req.partial = priced;
    req.constraints = {{NfpKind::kBinarySize, budget_kb}};
    auto est = FitEstimators(repo, req.constraints);
    if (!est.ok()) {
      std::fprintf(stderr, "fit failed: %s\n",
                   est.status().ToString().c_str());
      return 1;
    }
    auto greedy = GreedyDerive(*model, req, *est);
    auto exact = ExhaustiveDerive(*model, req, *est);
    if (!greedy.ok() || !exact.ok()) {
      std::printf("%-12.0f %14s %14s\n", budget_kb, "infeasible",
                  "infeasible");
      continue;
    }
    double ratio = exact->utility > 0 ? greedy->utility / exact->utility : 1;
    worst_ratio = std::min(worst_ratio, ratio);
    ratio_sum += ratio;
    ++ratio_count;
    std::printf("%-12.0f %14.1f %14.1f %7.0f%% %12llu %12llu\n", budget_kb,
                greedy->utility, exact->utility, ratio * 100,
                static_cast<unsigned long long>(greedy->evaluated),
                static_cast<unsigned long long>(exact->evaluated));
    if (greedy->estimates.at(NfpKind::kBinarySize) > budget_kb + 0.5) {
      all_within_budget = false;
    }
    if (greedy->utility > exact->utility + 1e-9) never_beats = false;
    if (greedy->evaluated > exact->evaluated) cheaper_search = false;
  }

  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    (ok ? pass : fail)++;
  };
  std::printf("\nshape checks:\n");
  check(all_within_budget, "greedy never exceeds the resource constraint");
  check(never_beats, "greedy utility <= exhaustive optimum (sanity)");
  double mean_ratio = ratio_count > 0 ? ratio_sum / ratio_count : 0;
  std::printf("  (mean greedy/optimal ratio %.0f%%, worst %.0f%% — greedy "
              "cannot swap\n   alternative-group defaults, which bites at "
              "the tightest budgets)\n",
              mean_ratio * 100, worst_ratio * 100);
  check(mean_ratio >= 0.70,
        "greedy achieves >= 70% of the optimum on average over the sweep");
  check(cheaper_search, "greedy evaluates fewer candidates than exhaustive");
  std::printf("\n%d checks passed, %d failed\n", pass, fail);
  return fail == 0 ? 0 : 1;
}
