#include "nfp/optimizer.h"

#include <cmath>

namespace fame::nfp {

StatusOr<EstimatorSet> FitEstimators(
    const FeedbackRepository& repo,
    const std::vector<ResourceConstraint>& constraints) {
  EstimatorSet set;
  for (const ResourceConstraint& c : constraints) {
    if (set.count(c.kind) > 0) continue;
    FAME_ASSIGN_OR_RETURN(SimilarityEstimator est,
                          SimilarityEstimator::Fit(repo, c.kind));
    set.emplace(c.kind, std::move(est));
  }
  return set;
}

double UtilityOf(const fm::Configuration& config,
                 const DerivationRequest& request) {
  double u = 0;
  const fm::FeatureModel* model = config.model();
  for (fm::FeatureId id = 0; id < model->size(); ++id) {
    if (!config.IsSelected(id)) continue;
    auto it = request.utility.find(model->feature(id).name);
    if (it != request.utility.end()) u += it->second;
  }
  return u;
}

NfpVector EstimateAll(const fm::Configuration& config,
                      const EstimatorSet& estimators) {
  NfpVector out;
  std::vector<std::string> names = config.SelectedNames();
  std::set<std::string> features(names.begin(), names.end());
  for (const auto& [kind, est] : estimators) {
    out[kind] = est.Estimate(features);
  }
  return out;
}

bool SatisfiesConstraints(const NfpVector& estimates,
                          const std::vector<ResourceConstraint>& constraints) {
  for (const ResourceConstraint& c : constraints) {
    auto it = estimates.find(c.kind);
    if (it == estimates.end()) return false;
    if (it->second > c.max_value) return false;
  }
  return true;
}

namespace {

/// Evaluates a complete configuration; nullopt when it violates the
/// budgets.
std::optional<DerivationResult> Evaluate(const fm::Configuration& config,
                                         const DerivationRequest& request,
                                         const EstimatorSet& estimators) {
  DerivationResult result{config, UtilityOf(config, request),
                          EstimateAll(config, estimators)};
  if (!SatisfiesConstraints(result.estimates, request.constraints)) {
    return std::nullopt;
  }
  return result;
}

/// Completes `partial` minimally and evaluates it. nullopt when the partial
/// configuration has no valid completion or violates the budgets.
std::optional<DerivationResult> EvaluatePartial(
    const fm::FeatureModel& model, const fm::Configuration& partial,
    const DerivationRequest& request, const EstimatorSet& estimators) {
  fm::Configuration config = partial;
  if (!model.CompleteMinimal(&config).ok()) return std::nullopt;
  return Evaluate(config, request, estimators);
}

/// Cost proxy: the first constraint's kind (or binary size when there are
/// no constraints), used to rank otherwise equal candidates.
double CostOf(const DerivationResult& r, const DerivationRequest& request) {
  NfpKind kind = request.constraints.empty() ? NfpKind::kBinarySize
                                             : request.constraints[0].kind;
  auto it = r.estimates.find(kind);
  return it == r.estimates.end() ? 0.0 : it->second;
}

}  // namespace

StatusOr<DerivationResult> GreedyDerive(const fm::FeatureModel& model,
                                        const DerivationRequest& request,
                                        const EstimatorSet& estimators) {
  fm::Configuration base = request.partial;
  FAME_RETURN_IF_ERROR(model.Propagate(&base));

  std::optional<DerivationResult> best =
      EvaluatePartial(model, base, request, estimators);
  if (!best) {
    return Status::ConfigInvalid(
        "no valid product within the resource constraints");
  }
  uint64_t evaluated = 1;

  bool improved = true;
  while (improved) {
    improved = false;
    fm::FeatureId best_candidate = fm::kNoFeature;
    DerivationResult best_trial;
    double best_score = 0;

    for (fm::FeatureId id : model.DecisionFeatures()) {
      if (base.Get(id) != fm::Decision::kUnknown) continue;
      fm::Configuration trial = base;
      if (!trial.Select(id).ok()) continue;
      if (!model.Propagate(&trial).ok()) continue;
      auto result = EvaluatePartial(model, trial, request, estimators);
      ++evaluated;
      if (!result) continue;
      double gain = result->utility - best->utility;
      if (gain <= 0) continue;
      double cost_delta = CostOf(*result, request) - CostOf(*best, request);
      double score = gain / std::max(1.0, cost_delta);
      if (score > best_score) {
        best_score = score;
        best_candidate = id;
        best_trial = std::move(*result);
      }
    }
    if (best_candidate != fm::kNoFeature) {
      FAME_RETURN_IF_ERROR(base.Select(best_candidate));
      FAME_RETURN_IF_ERROR(model.Propagate(&base));
      *best = std::move(best_trial);
      improved = true;
    }
  }
  best->evaluated = evaluated;
  return *best;
}

StatusOr<DerivationResult> ExhaustiveDerive(const fm::FeatureModel& model,
                                            const DerivationRequest& request,
                                            const EstimatorSet& estimators) {
  // Variants one exhaustive derivation may evaluate (small models only).
  constexpr uint64_t kMaxVariants = 200'000;
  std::optional<DerivationResult> best;
  uint64_t evaluated = 0;
  FAME_RETURN_IF_ERROR(model.ForEachVariant(
      request.partial, [&](const fm::Configuration& v) {
        if (++evaluated > kMaxVariants) return false;
        std::optional<DerivationResult> r = Evaluate(v, request, estimators);
        if (r && (!best || r->utility > best->utility ||
                  (r->utility == best->utility &&
                   CostOf(*r, request) < CostOf(*best, request)))) {
          best = std::move(r);
        }
        return true;
      }));
  if (evaluated > kMaxVariants) {
    return Status::ResourceExhausted("too many variants to derive exhaustively");
  }
  if (!best) {
    return Status::ConfigInvalid(
        "no valid product within the resource constraints");
  }
  best->evaluated = evaluated;
  return *best;
}

}  // namespace fame::nfp
