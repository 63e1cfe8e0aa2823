// Property tests over *randomly generated* feature models: propagation
// soundness (a propagated partial configuration never loses variants that
// a completion could reach), counting-vs-visiting agreement (also under
// partial configurations), DSL round-trips, and CompleteMinimal validity —
// the kind of adversarial model shapes hand-written tests miss.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "featuremodel/model.h"
#include "featuremodel/parser.h"

namespace fame::fm {
namespace {

/// Generates a random model with `n` features and a few random
/// constraints. Group kinds and optionality are randomized.
std::unique_ptr<FeatureModel> RandomModel(Random* rng, size_t n) {
  auto m = std::make_unique<FeatureModel>();
  FeatureId root = *m->AddRoot("r");
  std::vector<FeatureId> ids = {root};
  for (size_t i = 1; i < n; ++i) {
    FeatureId parent = ids[rng->Uniform(ids.size())];
    bool optional = rng->OneIn(2);
    auto id = m->AddFeature("f" + std::to_string(i), parent, optional);
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Random group kinds on internal nodes.
  for (FeatureId id : ids) {
    if (m->feature(id).children.empty()) continue;
    uint64_t pick = rng->Uniform(4);
    if (pick == 1) {
      EXPECT_TRUE(m->SetGroup(id, GroupKind::kOr).ok());
    }
    if (pick == 2) {
      EXPECT_TRUE(m->SetGroup(id, GroupKind::kXor).ok());
    }
  }
  // A few random cross-tree constraints between non-root features.
  for (int c = 0; c < 3 && n > 3; ++c) {
    FeatureId a = ids[1 + rng->Uniform(ids.size() - 1)];
    FeatureId b = ids[1 + rng->Uniform(ids.size() - 1)];
    if (a == b) continue;
    if (rng->OneIn(2)) {
      EXPECT_TRUE(
          m->AddRequires(m->feature(a).name, m->feature(b).name).ok());
    } else {
      EXPECT_TRUE(
          m->AddExcludes(m->feature(a).name, m->feature(b).name).ok());
    }
  }
  return m;
}

/// Every variant ForEachVariant visits from `partial`.
std::vector<Configuration> Variants(const FeatureModel& m,
                                    const Configuration& partial) {
  std::vector<Configuration> out;
  EXPECT_TRUE(m.ForEachVariant(partial, [&](const Configuration& v) {
                 out.push_back(v);
                 return true;
               }).ok());
  return out;
}

std::vector<Configuration> Variants(const FeatureModel& m) {
  return Variants(m, Configuration(&m));
}

TEST(FmRandomModelTest, CountAlwaysMatchesEnumeration) {
  Random rng(1001);
  for (int trial = 0; trial < 40; ++trial) {
    auto m = RandomModel(&rng, 4 + rng.Uniform(10));
    auto count = m->CountVariants();
    ASSERT_TRUE(count.ok());
    std::vector<Configuration> variants = Variants(*m);
    EXPECT_EQ(*count, variants.size()) << ToDsl(*m);
    std::set<std::string> sigs;
    for (const Configuration& v : variants) {
      EXPECT_TRUE(m->ValidateComplete(v).ok()) << ToDsl(*m);
      EXPECT_TRUE(sigs.insert(v.Signature()).second) << "duplicate variant";
    }
  }
}

TEST(FmRandomModelTest, PropagationIsSound) {
  // Whatever propagation forces must hold in *every* valid completion of
  // the partial configuration — propagation never over-commits.
  Random rng(2002);
  for (int trial = 0; trial < 30; ++trial) {
    auto m = RandomModel(&rng, 4 + rng.Uniform(8));
    std::vector<Configuration> variants = Variants(*m);
    if (variants.empty()) continue;  // void model: nothing to check

    // Random partial selection taken from a real variant (so a completion
    // exists by construction).
    const Configuration& witness = variants[rng.Uniform(variants.size())];
    Configuration partial(m.get());
    for (FeatureId id = 1; id < m->size(); ++id) {
      if (witness.IsSelected(id) && rng.OneIn(3)) {
        ASSERT_TRUE(partial.Select(id).ok());
      }
    }
    Status s = m->Propagate(&partial);
    ASSERT_TRUE(s.ok()) << ToDsl(*m);

    // Direct check: the witness itself satisfies everything propagation
    // forced (it is a valid completion of the seeds).
    for (FeatureId id = 0; id < m->size(); ++id) {
      if (partial.IsSelected(id)) {
        EXPECT_TRUE(witness.IsSelected(id))
            << "propagation selected " << m->feature(id).name
            << " which the witness completion does not have\n"
            << ToDsl(*m);
      }
      if (partial.IsExcluded(id)) {
        EXPECT_FALSE(witness.IsSelected(id))
            << "propagation excluded " << m->feature(id).name
            << " which the witness completion has\n"
            << ToDsl(*m);
      }
    }
  }
}

TEST(FmRandomModelTest, PartialCountMatchesVisitsAndFilteredSpace) {
  // Counting under a partial configuration agrees with visiting under it
  // and with filtering the full space by it.
  Random rng(5005);
  for (int trial = 0; trial < 200; ++trial) {
    auto m = RandomModel(&rng, 4 + rng.Uniform(12));
    std::vector<Configuration> all = Variants(*m);
    if (all.empty()) continue;  // void model: no witness
    const Configuration& witness = all[rng.Uniform(all.size())];
    Configuration partial(m.get());
    for (FeatureId id = 1; id < m->size(); ++id) {
      if (!rng.OneIn(3)) continue;
      ASSERT_TRUE((witness.IsSelected(id) ? partial.Select(id)
                                          : partial.Exclude(id))
                      .ok());
    }
    size_t consistent = 0;
    for (const Configuration& v : all) {
      bool agrees = true;
      for (FeatureId id = 0; id < m->size(); ++id) {
        if (partial.Get(id) != Decision::kUnknown &&
            partial.Get(id) != v.Get(id)) {
          agrees = false;
        }
      }
      if (agrees) ++consistent;
    }
    auto count = m->CountVariants(partial);
    ASSERT_TRUE(count.ok());
    EXPECT_GE(*count, 1u) << ToDsl(*m);  // the witness itself
    EXPECT_EQ(*count, consistent) << ToDsl(*m);
    EXPECT_EQ(*count, Variants(*m, partial).size()) << ToDsl(*m);
  }
}

TEST(FmRandomModelTest, ForEachVariantStopsWhenAsked) {
  Random rng(6006);
  for (int trial = 0; trial < 20; ++trial) {
    auto m = RandomModel(&rng, 6 + rng.Uniform(8));
    std::vector<Configuration> all = Variants(*m);
    if (all.size() < 2) continue;
    size_t stop_after = 1 + rng.Uniform(all.size() - 1);
    std::vector<Configuration> seen;
    ASSERT_TRUE(m->ForEachVariant(Configuration(m.get()),
                                  [&](const Configuration& v) {
                                    seen.push_back(v);
                                    return seen.size() < stop_after;
                                  })
                    .ok());
    ASSERT_EQ(seen.size(), stop_after) << ToDsl(*m);
    for (size_t i = 0; i < seen.size(); ++i) {  // a prefix, in order
      EXPECT_EQ(seen[i].Signature(), all[i].Signature());
    }
  }
}

TEST(FmRandomModelTest, CountBeyond64BitsIsResourceExhausted) {
  FeatureModel m;
  FeatureId root = *m.AddRoot("r");
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(m.AddFeature("f" + std::to_string(i), root, true).ok());
  }
  EXPECT_EQ(m.CountVariants().status().code(),
            StatusCode::kResourceExhausted);
  // Pinning seven leaves leaves 2^63 variants, which fits.
  Configuration partial(&m);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(partial.ExcludeByName("f" + std::to_string(i)).ok());
  }
  auto count = m.CountVariants(partial);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, uint64_t{1} << 63);
}

TEST(FmRandomModelTest, CompleteMinimalAlwaysValidWhenVariantsExist) {
  Random rng(3003);
  for (int trial = 0; trial < 40; ++trial) {
    auto m = RandomModel(&rng, 4 + rng.Uniform(10));
    auto count = m->CountVariants();
    ASSERT_TRUE(count.ok());
    Configuration c(m.get());
    Status s = m->CompleteMinimal(&c);
    if (*count == 0) {
      EXPECT_FALSE(s.ok()) << ToDsl(*m);
    } else {
      EXPECT_TRUE(s.ok()) << ToDsl(*m);
      if (s.ok()) {
        EXPECT_TRUE(m->ValidateComplete(c).ok());
      }
    }
  }
}

TEST(FmRandomModelTest, DslRoundTripPreservesSemantics) {
  Random rng(4004);
  for (int trial = 0; trial < 30; ++trial) {
    auto m = RandomModel(&rng, 3 + rng.Uniform(12));
    auto reparsed = ParseModel(ToDsl(*m));
    ASSERT_TRUE(reparsed.ok()) << ToDsl(*m);
    EXPECT_EQ((*reparsed)->size(), m->size());
    auto c1 = m->CountVariants();
    auto c2 = (*reparsed)->CountVariants();
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE(c2.ok());
    EXPECT_EQ(*c1, *c2) << ToDsl(*m);
  }
}

}  // namespace
}  // namespace fame::fm
