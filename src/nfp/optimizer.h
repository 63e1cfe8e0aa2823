// Product-derivation optimizers (paper §3.2). Finding a configuration that
// maximizes utility under resource constraints is a constraint-satisfaction
// / optimization problem (NP-complete); the paper uses a greedy algorithm
// to cope. We implement that greedy algorithm plus an exhaustive optimizer
// for small models, so the greedy optimality gap is measurable
// (bench/tab_greedy_vs_optimal).
#ifndef FAME_NFP_OPTIMIZER_H_
#define FAME_NFP_OPTIMIZER_H_

#include <optional>

#include "featuremodel/model.h"
#include "nfp/estimator.h"

namespace fame::nfp {

/// Upper bound on an estimated property: estimate(kind) <= max_value.
struct ResourceConstraint {
  NfpKind kind;
  double max_value;
};

/// What a derivation wants.
struct DerivationRequest {
  /// Decisions forced by the application (from static analysis §3.1) or the
  /// developer. Unknown features are free for the optimizer.
  fm::Configuration partial;

  /// Hard resource budgets (e.g. ROM <= 128 KiB, RAM <= 8 KiB).
  std::vector<ResourceConstraint> constraints;

  /// Per-feature utility of including an optional feature; features absent
  /// from the map have utility 0 (the optimizer will drop them when they
  /// cost anything). Secondary objective after utility: minimize the first
  /// constraint's kind (smaller products win ties).
  std::map<std::string, double> utility;
};

/// Result of a derivation.
struct DerivationResult {
  fm::Configuration config;
  double utility = 0;
  NfpVector estimates;  // estimated properties of the derived product
  uint64_t evaluated = 0;  // search nodes / candidates inspected
};

/// Estimator bundle: one similarity estimator per property kind the
/// constraints mention.
using EstimatorSet = std::map<NfpKind, SimilarityEstimator>;

/// Fits estimators for every kind used by `constraints` from `repo`.
StatusOr<EstimatorSet> FitEstimators(
    const FeedbackRepository& repo,
    const std::vector<ResourceConstraint>& constraints);

/// Utility of a complete configuration under `request`.
double UtilityOf(const fm::Configuration& config,
                 const DerivationRequest& request);

/// Estimated NFPs of a complete configuration.
NfpVector EstimateAll(const fm::Configuration& config,
                      const EstimatorSet& estimators);

/// True if every constraint holds for `estimates`.
bool SatisfiesConstraints(const NfpVector& estimates,
                          const std::vector<ResourceConstraint>& constraints);

/// The paper's greedy derivation: start from the minimal valid completion
/// of the partial configuration, then repeatedly add the not-yet-selected
/// optional feature with the best utility-per-estimated-cost ratio that
/// keeps every constraint satisfied. Returns ConfigInvalid when even the
/// minimal completion violates a constraint.
StatusOr<DerivationResult> GreedyDerive(const fm::FeatureModel& model,
                                        const DerivationRequest& request,
                                        const EstimatorSet& estimators);

/// Exhaustive optimum over all valid variants consistent with the partial
/// configuration (small models / ablation only): ResourceExhausted when
/// more than 200,000 variants extend it.
StatusOr<DerivationResult> ExhaustiveDerive(const fm::FeatureModel& model,
                                            const DerivationRequest& request,
                                            const EstimatorSet& estimators);

}  // namespace fame::nfp

#endif  // FAME_NFP_OPTIMIZER_H_
