// Whole-device product derivation — the paper's closing vision, end to
// end: compose the OS product line and the FAME-DBMS product line into one
// system model (multi-SPL), let the workload profile of the application
// choose the index statically (data-driven index selection), and derive
// the device software as a whole under a single ROM budget.
#include <cstdio>

#include "core/index_advisor.h"
#include "featuremodel/fame_model.h"
#include "featuremodel/multispl.h"
#include "featuremodel/parser.h"
#include "nfp/optimizer.h"

using namespace fame;

int main() {
  // ---- the two constituent SPLs ----
  auto os_or = fm::ParseModel(R"fm(
    feature EmbeddedOS {
      mandatory Scheduler abstract alternative {
        mandatory Cooperative
        mandatory Preemptive
      }
      optional Heap-Allocator
      optional File-System
    }
  )fm");
  if (!os_or.ok()) return 1;
  auto os = std::move(*os_or);
  auto dbms = fm::BuildFameDbmsModel();

  fm::MultiSplComposer composer("smart-meter");
  if (!composer.AddSpl("os", *os).ok() ||
      !composer.AddSpl("dbms", *dbms).ok() ||
      // Whole-system knowledge: dynamic allocation needs the OS heap, the
      // DBMS's Linux backend needs a file system.
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
  auto& system = *composite_or;
  auto count = system->CountVariants();
  std::printf("system model: %zu features, %s whole-device variants\n\n",
              system->size() - 1,
              count.ok() ? std::to_string(*count).c_str() : "many");

  // ---- data-driven index selection (calibrated from measurements) ----
  core::WorkloadProfile profile;
  profile.expected_entries = 96;        // one day of 15-minute meter readings
  profile.point_lookup_fraction = 0.2;  // occasional reading checks
  profile.range_scan_fraction = 0.05;   // rare daily exports
  profile.write_fraction = 0.75;        // mostly appends
  auto cost_model = core::Calibrate(4096);
  core::IndexRecommendation rec =
      cost_model.ok() ? core::AdviseIndex(profile, *cost_model)
                      : core::AdviseIndex(profile);
  std::printf("index advisor: %s (%s)\n", rec.feature.c_str(),
              rec.rationale.c_str());
  std::printf("  estimated cost/op: B+-Tree %.3f, List %.3f%s\n\n",
              rec.btree_cost, rec.list_cost,
              cost_model.ok() ? " [measured calibration]" : " [defaults]");

  // ---- whole-device derivation under one ROM budget ----
  fm::Configuration partial(system.get());
  if (!partial.SelectByName("dbms." + rec.feature).ok() ||
      !partial.SelectByName("dbms.NutOS").ok() ||  // the target device
      !system->Propagate(&partial).ok()) {
    std::fprintf(stderr, "seeding the configuration failed\n");
    return 1;
  }
  if (!system->CompleteMinimal(&partial).ok()) {
    std::fprintf(stderr, "derivation failed\n");
    return 1;
  }
  std::printf("derived whole-device product:\n");
  for (const char* part : {"os", "dbms"}) {
    std::printf("  %s: ", part);
    bool first = true;
    for (const std::string& f :
         fm::ProjectSelection(*system, partial, part)) {
      std::printf("%s%s", first ? "" : ", ", f.c_str());
      first = false;
    }
    std::printf("\n");
  }
  return 0;
}
