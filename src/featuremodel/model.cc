#include "featuremodel/model.h"

#include <algorithm>
#include <functional>

namespace fame::fm {

// ------------------------------------------------------------ building

StatusOr<FeatureId> FeatureModel::AddRoot(const std::string& name) {
  if (!features_.empty()) {
    return Status::InvalidArgument("model already has a root");
  }
  Feature f;
  f.name = name;
  features_.push_back(std::move(f));
  by_name_[name] = 0;
  return FeatureId{0};
}

StatusOr<FeatureId> FeatureModel::AddFeature(const std::string& name,
                                             FeatureId parent, bool optional) {
  if (features_.empty()) return Status::InvalidArgument("add a root first");
  if (parent >= features_.size()) {
    return Status::InvalidArgument("no such parent feature");
  }
  if (by_name_.count(name) > 0) {
    return Status::InvalidArgument("duplicate feature name: " + name);
  }
  Feature f;
  f.name = name;
  f.parent = parent;
  f.optional = optional;
  FeatureId id = static_cast<FeatureId>(features_.size());
  features_.push_back(std::move(f));
  features_[parent].children.push_back(id);
  by_name_[name] = id;
  return id;
}

Status FeatureModel::SetGroup(FeatureId parent, GroupKind kind) {
  if (parent >= features_.size()) {
    return Status::InvalidArgument("no such feature");
  }
  features_[parent].group = kind;
  return Status::OK();
}

Status FeatureModel::SetAbstract(FeatureId f, bool is_abstract) {
  if (f >= features_.size()) return Status::InvalidArgument("no such feature");
  features_[f].abstract_feature = is_abstract;
  return Status::OK();
}

Status FeatureModel::AddRequires(const std::string& a, const std::string& b) {
  FAME_ASSIGN_OR_RETURN(FeatureId ia, Find(a));
  FAME_ASSIGN_OR_RETURN(FeatureId ib, Find(b));
  constraints_.push_back(Constraint{Constraint::kRequires, ia, ib});
  return Status::OK();
}

Status FeatureModel::AddExcludes(const std::string& a, const std::string& b) {
  FAME_ASSIGN_OR_RETURN(FeatureId ia, Find(a));
  FAME_ASSIGN_OR_RETURN(FeatureId ib, Find(b));
  constraints_.push_back(Constraint{Constraint::kExcludes, ia, ib});
  return Status::OK();
}

StatusOr<FeatureId> FeatureModel::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no feature named " + name);
  }
  return it->second;
}

std::vector<FeatureId> FeatureModel::DecisionFeatures() const {
  std::vector<FeatureId> out;
  for (FeatureId id = 1; id < features_.size(); ++id) {
    const Feature& f = features_[id];
    const Feature& p = features_[f.parent];
    if (p.group != GroupKind::kAnd || f.optional) out.push_back(id);
  }
  return out;
}

// ------------------------------------------------------------ configuration

Status Configuration::Select(FeatureId id) {
  if (decisions_[id] == Decision::kExcluded) {
    return Status::ConfigInvalid("contradiction selecting " +
                                 model_->feature(id).name);
  }
  decisions_[id] = Decision::kSelected;
  return Status::OK();
}

Status Configuration::Exclude(FeatureId id) {
  if (decisions_[id] == Decision::kSelected) {
    return Status::ConfigInvalid("contradiction excluding " +
                                 model_->feature(id).name);
  }
  decisions_[id] = Decision::kExcluded;
  return Status::OK();
}

Status Configuration::SelectByName(const std::string& name) {
  FAME_ASSIGN_OR_RETURN(FeatureId id, model_->Find(name));
  return Select(id);
}

Status Configuration::ExcludeByName(const std::string& name) {
  FAME_ASSIGN_OR_RETURN(FeatureId id, model_->Find(name));
  return Exclude(id);
}

bool Configuration::Complete() const {
  return std::none_of(decisions_.begin(), decisions_.end(),
                      [](Decision d) { return d == Decision::kUnknown; });
}

std::vector<std::string> Configuration::SelectedNames() const {
  std::vector<std::string> names;
  for (FeatureId id = 0; id < decisions_.size(); ++id) {
    if (decisions_[id] == Decision::kSelected) {
      names.push_back(model_->feature(id).name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string Configuration::Signature() const {
  std::string out;
  for (const std::string& n : SelectedNames()) {
    if (!out.empty()) out.push_back(',');
    out.append(n);
  }
  return out;
}

// ------------------------------------------------------------ validation

Status FeatureModel::ValidateComplete(const Configuration& config) const {
  if (!config.Complete()) {
    return Status::ConfigInvalid("configuration is partial");
  }
  if (!config.IsSelected(root())) {
    return Status::ConfigInvalid("root must be selected");
  }
  for (FeatureId id = 1; id < features_.size(); ++id) {
    const Feature& f = features_[id];
    if (config.IsSelected(id) && !config.IsSelected(f.parent)) {
      return Status::ConfigInvalid(f.name + " selected without its parent");
    }
  }
  for (FeatureId id = 0; id < features_.size(); ++id) {
    const Feature& f = features_[id];
    if (f.children.empty()) continue;
    size_t selected_children = 0;
    for (FeatureId c : f.children) {
      if (config.IsSelected(c)) ++selected_children;
    }
    if (!config.IsSelected(id)) {
      if (selected_children != 0) {
        return Status::ConfigInvalid("children of unselected " + f.name);
      }
      continue;
    }
    switch (f.group) {
      case GroupKind::kAnd:
        for (FeatureId c : f.children) {
          if (!features_[c].optional && !config.IsSelected(c)) {
            return Status::ConfigInvalid("mandatory " + features_[c].name +
                                         " not selected");
          }
        }
        break;
      case GroupKind::kOr:
        if (selected_children == 0) {
          return Status::ConfigInvalid("or-group " + f.name + " empty");
        }
        break;
      case GroupKind::kXor:
        if (selected_children != 1) {
          return Status::ConfigInvalid("alternative group " + f.name +
                                       " needs exactly one child");
        }
        break;
    }
  }
  for (const Constraint& c : constraints_) {
    if (!config.IsSelected(c.a)) continue;
    if (c.kind == Constraint::kRequires && !config.IsSelected(c.b)) {
      return Status::ConfigInvalid(features_[c.a].name + " requires " +
                                   features_[c.b].name);
    }
    if (c.kind == Constraint::kExcludes && config.IsSelected(c.b)) {
      return Status::ConfigInvalid(features_[c.a].name + " excludes " +
                                   features_[c.b].name);
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ propagation

Status FeatureModel::Propagate(Configuration* config) const {
  FAME_RETURN_IF_ERROR(config->Select(root()));
  bool changed = true;
  while (changed) {
    changed = false;
    auto select = [&](FeatureId id) -> Status {
      if (config->Get(id) != Decision::kSelected) {
        FAME_RETURN_IF_ERROR(config->Select(id));
        changed = true;
      }
      return Status::OK();
    };
    auto exclude = [&](FeatureId id) -> Status {
      if (config->Get(id) != Decision::kExcluded) {
        FAME_RETURN_IF_ERROR(config->Exclude(id));
        changed = true;
      }
      return Status::OK();
    };

    for (FeatureId id = 1; id < features_.size(); ++id) {
      const Feature& f = features_[id];
      // child selected -> parent selected
      if (config->IsSelected(id)) {
        FAME_RETURN_IF_ERROR(select(f.parent));
      }
      // parent excluded -> child excluded
      if (config->IsExcluded(f.parent)) {
        FAME_RETURN_IF_ERROR(exclude(id));
      }
    }
    for (FeatureId id = 0; id < features_.size(); ++id) {
      const Feature& f = features_[id];
      if (f.children.empty()) continue;
      if (config->IsSelected(id)) {
        if (f.group == GroupKind::kAnd) {
          for (FeatureId c : f.children) {
            if (!features_[c].optional) FAME_RETURN_IF_ERROR(select(c));
          }
        } else {
          size_t selected = 0, excluded = 0;
          for (FeatureId c : f.children) {
            if (config->IsSelected(c)) ++selected;
            if (config->IsExcluded(c)) ++excluded;
          }
          if (f.group == GroupKind::kXor && selected == 1) {
            for (FeatureId c : f.children) {
              if (!config->IsSelected(c)) FAME_RETURN_IF_ERROR(exclude(c));
            }
          }
          if (selected == 0 && excluded + 1 == f.children.size()) {
            // one candidate left: it is forced (or and xor alike)
            for (FeatureId c : f.children) {
              if (!config->IsExcluded(c)) FAME_RETURN_IF_ERROR(select(c));
            }
          }
          if (selected == 0 && excluded == f.children.size()) {
            return Status::ConfigInvalid("group " + f.name +
                                         " cannot be satisfied");
          }
        }
      }
    }
    for (const Constraint& c : constraints_) {
      if (c.kind == Constraint::kRequires) {
        if (config->IsSelected(c.a)) FAME_RETURN_IF_ERROR(select(c.b));
        if (config->IsExcluded(c.b)) FAME_RETURN_IF_ERROR(exclude(c.a));
      } else {  // excludes
        if (config->IsSelected(c.a)) FAME_RETURN_IF_ERROR(exclude(c.b));
        if (config->IsSelected(c.b)) FAME_RETURN_IF_ERROR(exclude(c.a));
      }
    }
  }
  return Status::OK();
}

Status FeatureModel::CompleteMinimal(Configuration* config) const {
  FAME_RETURN_IF_ERROR(Propagate(config));
  // Greedily exclude unknowns (prefer the smallest product), re-propagating
  // after each decision; on contradiction, select instead. Members of a
  // selected or/xor group are the exception: one of them is needed anyway,
  // and declaration order encodes the product line's default alternative,
  // so the first undecided member of a choice-pending group is selected.
  for (FeatureId id = 1; id < features_.size(); ++id) {
    if (config->Get(id) != Decision::kUnknown) continue;
    const Feature& f = features_[id];
    const Feature& parent = features_[f.parent];
    if (parent.group != GroupKind::kAnd && config->IsSelected(f.parent)) {
      bool sibling_selected = false;
      for (FeatureId c : parent.children) {
        if (config->IsSelected(c)) sibling_selected = true;
      }
      if (!sibling_selected) {
        Configuration trial = *config;
        Status s = trial.Select(id);
        if (s.ok()) s = Propagate(&trial);
        if (s.ok()) {
          *config = trial;
          continue;
        }
      }
    }
    Configuration trial = *config;
    Status s = trial.Exclude(id);
    if (s.ok()) s = Propagate(&trial);
    if (s.ok()) {
      *config = trial;
      continue;
    }
    FAME_RETURN_IF_ERROR(config->Select(id));
    FAME_RETURN_IF_ERROR(Propagate(config));
  }
  return ValidateComplete(*config);
}

// ------------------------------------------------------------ variant search

namespace {

// Node budget of one search: it bounds the time spent on a .fm file read
// from outside the program.
constexpr uint64_t kMaxSearchNodes = 100'000'000;

// Counts saturate at kMany, which means "does not fit in 64 bits".
constexpr uint64_t kMany = UINT64_MAX;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_add_overflow(a, b, &r) ? kMany : r;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  uint64_t r;
  return a != 0 && b != 0 && __builtin_mul_overflow(a, b, &r) ? kMany : a * b;
}

// Completions of `config` under the tree semantics alone. sel[f] / exc[f]
// count the ways to decide f's subtree with f selected / excluded (exc is 0
// or 1). Parents have lower ids than their children, so a reverse pass
// sees every child first.
uint64_t CountTreeCompletions(const FeatureModel& model,
                              const Configuration& config) {
  std::vector<uint64_t> sel(model.size()), exc(model.size());
  for (FeatureId id = static_cast<FeatureId>(model.size()); id-- > 0;) {
    const Feature& f = model.feature(id);
    uint64_t none = 1;  // every child excluded
    for (FeatureId c : f.children) none &= exc[c];
    uint64_t s = f.children.empty() || f.group != GroupKind::kXor ? 1 : 0;
    for (FeatureId c : f.children) {
      if (f.group == GroupKind::kXor) {  // c is the one selected child
        uint64_t others = 1;
        for (FeatureId o : f.children) others &= o == c || exc[o];
        s = SatAdd(s, others * sel[c]);
      } else if (f.group == GroupKind::kAnd && !model.feature(c).optional) {
        s = SatMul(s, sel[c]);
      } else {
        s = SatMul(s, SatAdd(sel[c], exc[c]));
      }
    }
    if (f.group == GroupKind::kOr && !f.children.empty() && s != kMany) {
      s -= none;  // an or-group needs one child
    }
    sel[id] = config.IsExcluded(id) ? 0 : s;
    exc[id] = config.IsSelected(id) ? 0 : none;
  }
  return sel[model.root()];
}

// Completes `config` by excluding every unknown; true when the result is a
// valid variant, false on a dead branch.
bool CompleteAndValidate(const FeatureModel& model, const Configuration& config,
                         Configuration* complete) {
  *complete = config;
  for (FeatureId id = 0; id < model.size(); ++id) {
    if (complete->Get(id) == Decision::kUnknown) {
      if (!complete->Exclude(id).ok()) return false;
      if (!model.Propagate(complete).ok()) return false;  // dead branch
    }
  }
  return model.ValidateComplete(*complete).ok();
}

// The one branch-and-propagate search behind counting and visiting: decide
// each still-unknown feature of `order` in turn, select before exclude,
// propagating after each decision and pruning contradictions. `leaf` runs
// once all of `order` is decided and returns false to stop the search.
struct VariantSearch {
  const FeatureModel& model;
  const std::vector<FeatureId>& order;
  const std::function<bool(const Configuration&)>& leaf;
  uint64_t nodes = 0;
  bool stopped = false;

  Status Branch(const Configuration& config, size_t idx) {
    if (++nodes > kMaxSearchNodes) {
      return Status::ResourceExhausted("variant space too large");
    }
    while (idx < order.size() && config.Get(order[idx]) != Decision::kUnknown) {
      ++idx;
    }
    if (idx == order.size()) {
      stopped = !leaf(config);
      return Status::OK();
    }
    for (Decision d : {Decision::kSelected, Decision::kExcluded}) {
      Configuration trial = config;
      Status s = d == Decision::kSelected ? trial.Select(order[idx])
                                          : trial.Exclude(order[idx]);
      if (s.ok()) s = model.Propagate(&trial);
      if (!s.ok()) continue;  // contradiction: prune
      FAME_RETURN_IF_ERROR(Branch(trial, idx + 1));
      if (stopped) break;
    }
    return Status::OK();
  }
};

Status Search(const FeatureModel& model, const Configuration& partial,
              const std::vector<FeatureId>& order,
              const std::function<bool(const Configuration&)>& leaf) {
  if (partial.model() != &model) {
    return Status::InvalidArgument("configuration of another model");
  }
  Configuration config = partial;
  Status s = model.Propagate(&config);
  if (s.code() == StatusCode::kConfigInvalid) return Status::OK();  // void
  FAME_RETURN_IF_ERROR(s);
  return VariantSearch{model, order, leaf}.Branch(config, 0);
}

}  // namespace

StatusOr<uint64_t> FeatureModel::CountVariants(
    const Configuration& partial) const {
  // Once every constrained feature is decided, no constraint is open and
  // the rest of the space is the tree's alone.
  std::set<FeatureId> constrained;
  for (const Constraint& c : constraints_) constrained.insert({c.a, c.b});
  uint64_t total = 0;
  FAME_RETURN_IF_ERROR(Search(
      *this, partial, {constrained.begin(), constrained.end()},
      [&](const Configuration& config) {
        total = SatAdd(total, CountTreeCompletions(*this, config));
        return total != kMany;
      }));
  if (total == kMany) {
    return Status::ResourceExhausted("variant count does not fit in 64 bits");
  }
  return total;
}

StatusOr<uint64_t> FeatureModel::CountVariants() const {
  return CountVariants(Configuration(this));
}

Status FeatureModel::ForEachVariant(
    const Configuration& partial,
    const std::function<bool(const Configuration&)>& fn) const {
  Configuration complete(this);
  return Search(*this, partial, DecisionFeatures(),
                [&](const Configuration& config) {
                  return !CompleteAndValidate(*this, config, &complete) ||
                         fn(complete);
                });
}

// ------------------------------------------------------------ printing

std::string FeatureModel::ToTreeString() const {
  std::string out;
  std::function<void(FeatureId, int)> walk = [&](FeatureId id, int depth) {
    const Feature& f = features_[id];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    if (id != root()) {
      const Feature& p = features_[f.parent];
      if (p.group == GroupKind::kOr) {
        out += "o ";
      } else if (p.group == GroupKind::kXor) {
        out += "x ";
      } else {
        out += f.optional ? "? " : "! ";
      }
    }
    out += f.name;
    if (f.abstract_feature) out += " (abstract)";
    switch (f.group) {
      case GroupKind::kOr:
        out += " <or>";
        break;
      case GroupKind::kXor:
        out += " <alternative>";
        break;
      default:
        break;
    }
    out += "\n";
    for (FeatureId c : f.children) walk(c, depth + 1);
  };
  if (!features_.empty()) walk(root(), 0);
  for (const Constraint& c : constraints_) {
    out += features_[c.a].name;
    out += c.kind == Constraint::kRequires ? " requires " : " excludes ";
    out += features_[c.b].name;
    out += "\n";
  }
  return out;
}

}  // namespace fame::fm
