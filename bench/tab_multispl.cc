// Future-work reproduction (paper conclusion): "extend SPL composition and
// optimization to cover multiple SPLs (e.g., including the operating
// system and client applications) to optimize the software of an embedded
// system as a whole."
//
// This table compares, under one whole-device ROM budget:
//   separate — optimize the OS SPL and the DBMS SPL independently, each
//              granted half the budget (the state of practice the paper
//              criticizes), then check the combined system;
//   joint    — one greedy derivation over the composed system model with
//              cross-SPL constraints.
// Joint optimization can shift budget between the SPLs and respects
// cross-SPL constraints by construction.
#include <cstdio>

#include "featuremodel/fame_model.h"
#include "featuremodel/multispl.h"
#include "featuremodel/parser.h"
#include "nfp/optimizer.h"

using namespace fame;
using namespace fame::nfp;

namespace {

constexpr const char kOsDsl[] = R"fm(
feature EmbeddedOS {
  mandatory Scheduler abstract alternative {
    mandatory Cooperative
    mandatory Preemptive
  }
  optional Heap-Allocator
  optional File-System
  optional Network
  optional Power-Mgmt
}
constraints {
  Network requires Preemptive;
}
)fm";

const std::map<std::string, double>& CostKb() {
  static const std::map<std::string, double> costs = {
      // OS SPL
      {"Preemptive", 6},      {"Heap-Allocator", 6}, {"File-System", 14},
      {"Network", 20},        {"Power-Mgmt", 4},
      // DBMS SPL (FAME model names)
      {"Put", 2},             {"Remove", 3},         {"Update", 3},
      {"BTree-Update", 2},    {"BTree-Remove", 4},   {"B+-Tree", 18},
      {"List", 6},            {"Transaction", 34},   {"Locking", 8},
      {"WAL-Redo", 6},        {"Force-Commit", 2},   {"API", 9},
      {"SQL-Engine", 28},     {"Optimizer", 7},      {"String-Types", 3},
      {"Blob-Types", 3},
  };
  return costs;
}

/// ROM of a product: `base` plus the cost of each feature, looked up
/// without the "<spl>." prefix a composite model gives its features.
double SizeOf(const std::vector<std::string>& features, double base) {
  double kb = base;
  for (const std::string& f : features) {
    auto it = CostKb().find(f.substr(f.find('.') + 1));
    if (it != CostKb().end()) kb += it->second;
  }
  return kb;
}

/// Extension features of the DBMS SPL that CostKb() does not price; the
/// repositories and derivations pin them off (prefixed by the SPL name in
/// the composite).
constexpr const char* kUnpriced[] = {
    "Scrub",  "Verify",      "Repair",      "Concurrency", "Observability",
    "Backup", "Replication", "ReverseScan", "Mvcc"};

StatusOr<fm::Configuration> PricedSpace(const fm::FeatureModel& model,
                                        const std::string& dbms_prefix) {
  fm::Configuration partial(&model);
  for (const char* f : kUnpriced) {
    FAME_RETURN_IF_ERROR(partial.ExcludeByName(dbms_prefix + f));
  }
  return partial;
}

/// Builds a feedback repository from every `stride`-th variant extending
/// `partial`, attributing costs by the table above (base = fixed
/// kernel/runtime size).
StatusOr<FeedbackRepository> BuildRepo(const fm::FeatureModel& model,
                                       const fm::Configuration& partial,
                                       double base, size_t stride) {
  FeedbackRepository repo;
  size_t i = 0;
  FAME_RETURN_IF_ERROR(
      model.ForEachVariant(partial, [&](const fm::Configuration& v) {
        if (++i % stride != 0) return true;
        MeasuredProduct mp;
        mp.features = v.SelectedNames();
        mp.values[NfpKind::kBinarySize] = SizeOf(mp.features, base);
        repo.Add(std::move(mp));
        return true;
      }));
  return repo;
}

const std::map<std::string, double>& Utility() {
  static const std::map<std::string, double> u = {
      {"os.Network", 6},     {"os.Power-Mgmt", 3},
      {"dbms.Transaction", 10}, {"dbms.SQL-Engine", 8},
      {"dbms.Update", 4},    {"dbms.Remove", 4},  {"dbms.API", 5}};
  return u;
}

}  // namespace

int main() {
  auto os_or = fm::ParseModel(kOsDsl);
  if (!os_or.ok()) {
    std::fprintf(stderr, "os model: %s\n", os_or.status().ToString().c_str());
    return 1;
  }
  auto os = std::move(*os_or);
  auto dbms = fm::BuildFameDbmsModel();

  fm::MultiSplComposer composer("device");
  if (!composer.AddSpl("os", *os).ok() ||
      !composer.AddSpl("dbms", *dbms).ok() ||
      !composer.AddRequires("dbms.Dynamic", "os.Heap-Allocator").ok() ||
      !composer.AddRequires("dbms.Linux", "os.File-System").ok()) {
    return 1;
  }
  auto composite_or = composer.Compose();
  if (!composite_or.ok()) {
    std::fprintf(stderr, "compose: %s\n",
                 composite_or.status().ToString().c_str());
    return 1;
  }
  auto& composite = *composite_or;

  // Repositories: per-SPL for "separate", whole-system for "joint".
  fm::Configuration os_space(os.get());
  auto dbms_space = PricedSpace(*dbms, "");
  auto joint_space = PricedSpace(*composite, "dbms.");
  if (!dbms_space.ok() || !joint_space.ok()) return 1;
  auto os_repo = BuildRepo(*os, os_space, 20, 2);
  auto dbms_repo = BuildRepo(*dbms, *dbms_space, 40, 23);
  auto joint_repo = BuildRepo(*composite, *joint_space, 60, 113);
  for (const auto* repo : {&os_repo, &dbms_repo, &joint_repo}) {
    if (!repo->ok()) {
      std::fprintf(stderr, "repository: %s\n",
                   repo->status().ToString().c_str());
      return 1;
    }
  }

  std::printf("whole-system (multi-SPL) vs per-SPL optimization\n");
  std::printf("(OS repo %zu, DBMS repo %zu, joint repo %zu products)\n\n",
              os_repo->size(), dbms_repo->size(), joint_repo->size());
  std::printf("%-10s %18s %18s\n", "ROM [KB]", "separate (50/50)", "joint");

  int pass = 0, fail = 0;
  bool joint_never_worse = true;
  int both_feasible = 0;
  for (double budget : {90, 110, 130, 150, 180}) {
    // ---- separate: each SPL gets half the budget ----
    double separate_utility = -1;
    {
      DerivationRequest os_req;
      os_req.partial = os_space;
      os_req.constraints = {{NfpKind::kBinarySize, budget / 2}};
      for (const auto& [f, u] : Utility()) {
        if (f.rfind("os.", 0) == 0) os_req.utility[f.substr(3)] = u;
      }
      DerivationRequest db_req;
      db_req.partial = *dbms_space;
      db_req.constraints = {{NfpKind::kBinarySize, budget / 2}};
      for (const auto& [f, u] : Utility()) {
        if (f.rfind("dbms.", 0) == 0) db_req.utility[f.substr(5)] = u;
      }
      auto os_est = FitEstimators(*os_repo, os_req.constraints);
      auto db_est = FitEstimators(*dbms_repo, db_req.constraints);
      if (os_est.ok() && db_est.ok()) {
        auto os_res = GreedyDerive(*os, os_req, *os_est);
        auto db_res = GreedyDerive(*dbms, db_req, *db_est);
        if (os_res.ok() && db_res.ok()) {
          separate_utility = os_res->utility + db_res->utility;
        }
      }
    }
    // ---- joint: one derivation over the composite ----
    double joint_utility = -1;
    {
      DerivationRequest req;
      req.partial = *joint_space;
      req.constraints = {{NfpKind::kBinarySize, budget}};
      req.utility = Utility();
      auto est = FitEstimators(*joint_repo, req.constraints);
      if (est.ok()) {
        auto res = GreedyDerive(*composite, req, *est);
        if (res.ok()) joint_utility = res->utility;
      }
    }
    auto cell = [](double u) {
      static char buf[2][32];
      static int w = 0;
      w ^= 1;
      if (u < 0) {
        std::snprintf(buf[w], sizeof(buf[w]), "%18s", "infeasible");
      } else {
        std::snprintf(buf[w], sizeof(buf[w]), "%18.1f", u);
      }
      return buf[w];
    };
    std::printf("%-10.0f %s %s\n", budget, cell(separate_utility),
                cell(joint_utility));
    if (joint_utility < separate_utility) joint_never_worse = false;
    if (separate_utility >= 0 && joint_utility >= 0) ++both_feasible;
  }

  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    (ok ? pass : fail)++;
  };
  std::printf("\nshape checks:\n");
  check(joint_never_worse,
        "whole-system optimization never loses to fixed 50/50 budgeting");
  check(both_feasible > 0,
        "at least one budget is feasible for both optimizations");
  std::printf("\n%d checks passed, %d failed\n", pass, fail);
  return fail == 0 ? 0 : 1;
}
