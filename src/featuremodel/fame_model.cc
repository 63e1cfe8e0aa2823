#include "featuremodel/fame_model.h"

#include <cstdio>
#include <cstdlib>

#include "featuremodel/fame_dbms_fm.h"
#include "featuremodel/parser.h"

namespace fame::fm {

std::unique_ptr<FeatureModel> BuildFameDbmsModel() {
  auto model_or = ParseModel(kFameDbmsModelDsl);
  if (!model_or.ok()) {
    std::fprintf(stderr, "embedded FAME-DBMS model failed to parse: %s\n",
                 model_or.status().ToString().c_str());
    std::abort();
  }
  return std::move(model_or).value();
}

}  // namespace fame::fm
