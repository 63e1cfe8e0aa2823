// §2.3 ablation (decomposition granularity): "the granularity is the key
// for a trade-off between complexity and variability". This table compares
// three granularities of the same FAME-DBMS prototype — coarse (only
// top-level options), the paper's mixed granularity (the shipped Figure 2
// model), and a uniformly fine decomposition — by feature count
// (complexity proxy) and variant count (variability).
#include <cstdio>

#include "featuremodel/fame_model.h"
#include "featuremodel/parser.h"

using namespace fame;

namespace {

constexpr const char kCoarseDsl[] = R"fm(
feature FAME-DBMS-coarse {
  mandatory Storage
  optional Transaction
  optional API
  optional SQL-Engine
}
constraints { SQL-Engine requires API; }
)fm";

// Uniformly fine: the shipped mixed model with every concern decomposed
// further (buffer-manager internals, per-operation transaction hooks, SQL
// clauses). Built on BuildFameDbmsModel(), so it stays strictly finer than
// mixed however the model grows.
StatusOr<std::unique_ptr<fm::FeatureModel>> BuildFineModel() {
  static constexpr struct {
    const char* name;
    const char* parent;
  } kFinerLeaves[] = {
      {"Prefetching", "Buffer-Manager"},  {"Dirty-Tracking", "Buffer-Manager"},
      {"Pin-Counting", "Buffer-Manager"}, {"BTree-Bulk", "B+-Tree"},
      {"BTree-Prefix", "B+-Tree"},        {"Checksums", "Storage"},
      {"Free-Space-Mgmt", "Storage"},     {"Deadlock-Detection", "Locking"},
      {"Group-Commit", "Transaction"},    {"Order-By", "SQL-Engine"},
      {"Limit-Clause", "SQL-Engine"},     {"Update-Stmt", "SQL-Engine"},
  };
  auto model = fm::BuildFameDbmsModel();
  for (const auto& leaf : kFinerLeaves) {
    FAME_ASSIGN_OR_RETURN(fm::FeatureId parent, model->Find(leaf.parent));
    FAME_RETURN_IF_ERROR(
        model->AddFeature(leaf.name, parent, /*optional=*/true).status());
  }
  return model;
}

void Report(const char* name, const fm::FeatureModel& m) {
  auto count = m.CountVariants();
  std::printf("%-28s %10zu %10zu %14s\n", name, m.size() - 1,
              m.DecisionFeatures().size(),
              count.ok() ? std::to_string(*count).c_str()
                         : count.status().ToString().c_str());
}

}  // namespace

int main() {
  auto coarse = fm::ParseModel(kCoarseDsl);
  auto mixed = fm::BuildFameDbmsModel();
  auto fine = BuildFineModel();
  if (!coarse.ok() || !fine.ok()) {
    std::fprintf(stderr, "parse failed: %s / %s\n",
                 coarse.status().ToString().c_str(),
                 fine.status().ToString().c_str());
    return 1;
  }

  std::printf("decomposition-granularity ablation (paper section 2.3)\n\n");
  std::printf("%-28s %10s %10s %14s\n", "granularity", "features",
              "decisions", "variants");
  Report("coarse (components)", **coarse);
  Report("mixed (paper, Figure 2)", *mixed);
  Report("fine (uniform)", **fine);

  auto c1 = (*coarse)->CountVariants();
  auto c2 = mixed->CountVariants();
  auto c3 = (*fine)->CountVariants();
  int pass = 0, fail = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    (ok ? pass : fail)++;
  };
  std::printf("\nshape checks:\n");
  check(c1.ok() && c2.ok() && *c1 < *c2,
        "mixed granularity offers more variability than coarse");
  // The explosion itself is the result (and the paper's argument for
  // *mixed* granularity: all that variability must be configured).
  check(c2.ok() && c3.ok() && *c2 < *c3,
        "fine granularity explodes the variant space beyond mixed");
  check((*fine)->size() > mixed->size() &&
            mixed->size() > (*coarse)->size(),
        "variability is bought with model complexity (feature count)");
  std::printf("\n%d checks passed, %d failed\n", pass, fail);
  return fail == 0 ? 0 : 1;
}
