// Figure 2 reproduction: the FAME-DBMS prototype feature diagram, printed
// from the canonical model, plus the configuration-space statistics that
// motivate automated product derivation (section 3: "the product derivation
// process is getting complex if there is a large number of features").
#include <cstdio>

#include "featuremodel/fame_model.h"

using namespace fame;

int main() {
  auto model = fm::BuildFameDbmsModel();

  std::printf("Figure 2 — FAME-DBMS prototype feature diagram\n");
  std::printf("(x alternative member, o or member, ! mandatory, ? optional)\n\n");
  std::printf("%s\n", model->ToTreeString().c_str());

  auto count = model->CountVariants();
  if (!count.ok()) {
    std::printf("variant counting failed: %s\n",
                count.status().ToString().c_str());
    return 1;
  }
  size_t abstract = 0;
  for (fm::FeatureId id = 0; id < model->size(); ++id) {
    if (model->feature(id).abstract_feature) ++abstract;
  }

  std::printf("configuration-space statistics:\n");
  std::printf("  features total           %zu\n", model->size());
  std::printf("  aggregating (abstract)   %zu\n", abstract);
  std::printf("  decision features        %zu\n",
              model->DecisionFeatures().size());
  std::printf("  cross-tree constraints   %zu\n",
              model->constraints().size());
  std::printf("  valid variants           %llu\n",
              static_cast<unsigned long long>(*count));

  // Per-feature variability: how many variants remain with one feature
  // selected, and with it excluded; the two must add up to the total.
  std::printf("\nforced-feature probe (variants remaining when selecting or "
              "excluding one feature):\n");
  bool probe_adds_up = true;
  for (const char* f : {"Transaction", "SQL-Engine", "NutOS", "List"}) {
    fm::Configuration with(model.get()), without(model.get());
    bool named = with.SelectByName(f).ok() && without.ExcludeByName(f).ok();
    auto selected = model->CountVariants(with);
    auto excluded = model->CountVariants(without);
    if (!named || !selected.ok() || !excluded.ok()) {
      probe_adds_up = false;
      continue;
    }
    std::printf("  %-12s -> %llu selected, %llu excluded\n", f,
                static_cast<unsigned long long>(*selected),
                static_cast<unsigned long long>(*excluded));
    if (*selected + *excluded != *count) probe_adds_up = false;
  }

  int pass = 0, fail = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    (ok ? pass : fail)++;
  };
  std::printf("\nshape checks:\n");
  check(*count > 1000,
        "configuration space is large enough to need tool support");
  check(model->DecisionFeatures().size() >= 15,
        "fine-grained decomposition: >= 15 decision features");
  check(probe_adds_up,
        "each probed feature splits the space: selected + excluded = total");
  std::printf("\n%d checks passed, %d failed\n", pass, fail);
  return fail == 0 ? 0 : 1;
}
