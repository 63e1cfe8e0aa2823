// Feature models: the formalism behind the paper's product-line approach.
// A model is a tree of features (Figure 2 of the paper) with per-parent
// child grouping (AND with mandatory/optional children, OR groups, XOR
// "alternative" groups) plus cross-tree constraints (requires / excludes).
//
// A *configuration* assigns each feature selected/excluded; a configuration
// is a valid *variant* when it satisfies the tree semantics and all
// constraints. Product derivation (section 3 of the paper) works on partial
// configurations: unit propagation completes everything that is forced.
#ifndef FAME_FEATUREMODEL_MODEL_H_
#define FAME_FEATUREMODEL_MODEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace fame::fm {

using FeatureId = uint32_t;
constexpr FeatureId kNoFeature = 0xffffffffu;

/// How the children of a feature are interpreted.
enum class GroupKind : uint8_t {
  kAnd = 0,  ///< children individually mandatory or optional
  kOr = 1,   ///< at least one child when the parent is selected
  kXor = 2,  ///< exactly one child when the parent is selected (alternative)
};

/// One node of the feature diagram.
struct Feature {
  std::string name;
  FeatureId parent = kNoFeature;
  std::vector<FeatureId> children;
  bool optional = false;        // ignored for or/xor group members
  GroupKind group = GroupKind::kAnd;  // grouping of *children*
  bool abstract_feature = false;  ///< aggregating feature without own code
                                  ///< (paper §2.3: pure structure)
};

/// Cross-tree constraint a -> b (requires) or a -> !b (excludes).
struct Constraint {
  enum Kind : uint8_t { kRequires, kExcludes } kind;
  FeatureId a;
  FeatureId b;
};

/// Tri-state of a feature inside a (partial) configuration.
enum class Decision : uint8_t { kUnknown = 0, kSelected = 1, kExcluded = 2 };

class Configuration;

/// A feature model: tree + constraints. Build programmatically or via
/// ParseModel() (parser.h).
class FeatureModel {
 public:
  /// Creates the root feature; must be called exactly once, first.
  StatusOr<FeatureId> AddRoot(const std::string& name);

  /// Adds a child feature. `optional` only matters while the parent's group
  /// is kAnd.
  StatusOr<FeatureId> AddFeature(const std::string& name, FeatureId parent,
                                 bool optional);

  /// Sets how `parent`'s children are grouped.
  Status SetGroup(FeatureId parent, GroupKind kind);

  /// Marks a feature as purely aggregating (no implementation of its own).
  Status SetAbstract(FeatureId f, bool is_abstract);

  Status AddRequires(const std::string& a, const std::string& b);
  Status AddExcludes(const std::string& a, const std::string& b);

  /// Looks a feature up by (unique) name.
  StatusOr<FeatureId> Find(const std::string& name) const;
  bool Has(const std::string& name) const { return by_name_.count(name) > 0; }

  const Feature& feature(FeatureId id) const { return features_[id]; }
  FeatureId root() const { return 0; }
  size_t size() const { return features_.size(); }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Features that are optional decisions somewhere (not forced by tree
  /// structure alone): optional AND-children and or/xor group members.
  std::vector<FeatureId> DecisionFeatures() const;

  /// Validates a *complete* configuration (every feature decided).
  Status ValidateComplete(const Configuration& config) const;

  /// Unit propagation: extends `config` with every forced decision.
  /// ConfigInvalid on contradiction. Root is selected automatically.
  Status Propagate(Configuration* config) const;

  /// Completes a partial configuration into a valid minimal variant:
  /// propagate, then exclude every still-unknown feature (re-propagating).
  /// ConfigInvalid if no valid completion exists on that path.
  Status CompleteMinimal(Configuration* config) const;

  /// Counts the valid variants that extend `partial` (0 when none does).
  /// Branches with propagation only on the features of cross-tree
  /// constraints, then counts each branch's tree completions in one
  /// bottom-up pass. ResourceExhausted when the count does not fit in 64
  /// bits or the search exceeds its node budget; InvalidArgument when
  /// `partial` belongs to another model.
  StatusOr<uint64_t> CountVariants(const Configuration& partial) const;
  StatusOr<uint64_t> CountVariants() const;

  /// Calls `fn` with each valid variant that extends `partial`, in
  /// DecisionFeatures() order with select before exclude; `fn` returns
  /// false to stop. Fails like CountVariants on a foreign `partial` or past
  /// the node budget.
  Status ForEachVariant(
      const Configuration& partial,
      const std::function<bool(const Configuration&)>& fn) const;

  /// Pretty-prints the diagram as an indented tree (Figure 2 rendering).
  std::string ToTreeString() const;

 private:
  std::vector<Feature> features_;
  std::map<std::string, FeatureId> by_name_;
  std::vector<Constraint> constraints_;
};

/// A (partial) assignment of decisions to the features of one model.
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(const FeatureModel* model)
      : model_(model), decisions_(model->size(), Decision::kUnknown) {}

  Decision Get(FeatureId id) const { return decisions_[id]; }
  bool IsSelected(FeatureId id) const {
    return decisions_[id] == Decision::kSelected;
  }
  bool IsExcluded(FeatureId id) const {
    return decisions_[id] == Decision::kExcluded;
  }

  /// Sets a decision; ConfigInvalid if it contradicts an existing one.
  Status Select(FeatureId id);
  Status Exclude(FeatureId id);
  Status SelectByName(const std::string& name);
  Status ExcludeByName(const std::string& name);

  bool Complete() const;

  /// Names of selected features, sorted (stable identity of a variant).
  std::vector<std::string> SelectedNames() const;
  /// Canonical single-string form: comma-joined SelectedNames.
  std::string Signature() const;

  const FeatureModel* model() const { return model_; }

 private:
  const FeatureModel* model_ = nullptr;
  std::vector<Decision> decisions_;
};

}  // namespace fame::fm

#endif  // FAME_FEATUREMODEL_MODEL_H_
