// Tests for the feature-model library: model building, the .fm DSL parser,
// validation, propagation, minimal completion, exact variant counting
// (checked against brute-force enumeration), and the shipped FAME-DBMS
// model of Figure 2.
#include <gtest/gtest.h>

#include "featuremodel/fame_model.h"
#include "featuremodel/model.h"
#include "featuremodel/parser.h"

namespace fame::fm {
namespace {

/// A small reference model:
///   root
///     mandatory M
///     optional  O
///     mandatory G alternative { A B }
///     optional  H or { X Y }
///   constraints { O requires X; A excludes Y; }
std::unique_ptr<FeatureModel> SmallModel() {
  auto m = std::make_unique<FeatureModel>();
  FeatureId root = *m->AddRoot("root");
  EXPECT_TRUE(m->AddFeature("M", root, false).ok());
  EXPECT_TRUE(m->AddFeature("O", root, true).ok());
  FeatureId g = *m->AddFeature("G", root, false);
  EXPECT_TRUE(m->SetGroup(g, GroupKind::kXor).ok());
  EXPECT_TRUE(m->AddFeature("A", g, false).ok());
  EXPECT_TRUE(m->AddFeature("B", g, false).ok());
  FeatureId h = *m->AddFeature("H", root, true);
  EXPECT_TRUE(m->SetGroup(h, GroupKind::kOr).ok());
  EXPECT_TRUE(m->AddFeature("X", h, false).ok());
  EXPECT_TRUE(m->AddFeature("Y", h, false).ok());
  EXPECT_TRUE(m->AddRequires("O", "X").ok());
  EXPECT_TRUE(m->AddExcludes("A", "Y").ok());
  return m;
}

TEST(FeatureModelTest, BuildAndLookup) {
  auto m = SmallModel();
  EXPECT_EQ(m->size(), 9u);
  EXPECT_TRUE(m->Has("A"));
  EXPECT_FALSE(m->Has("Z"));
  EXPECT_TRUE(m->Find("Z").status().IsNotFound());
  EXPECT_FALSE(m->AddFeature("A", m->root(), true).ok());  // duplicate
}

TEST(FeatureModelTest, ValidateCompleteAcceptsGoodConfig) {
  auto m = SmallModel();
  Configuration c(m.get());
  for (const char* f : {"root", "M", "G", "A"}) {
    ASSERT_TRUE(c.SelectByName(f).ok());
  }
  for (const char* f : {"O", "B", "H", "X", "Y"}) {
    ASSERT_TRUE(c.ExcludeByName(f).ok());
  }
  EXPECT_TRUE(m->ValidateComplete(c).ok()) << m->ValidateComplete(c).ToString();
}

TEST(FeatureModelTest, ValidateRejectsMissingMandatory) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("root").ok());
  ASSERT_TRUE(c.SelectByName("G").ok());
  ASSERT_TRUE(c.SelectByName("A").ok());
  ASSERT_TRUE(c.ExcludeByName("M").ok());  // mandatory!
  for (const char* f : {"O", "B", "H", "X", "Y"}) {
    ASSERT_TRUE(c.ExcludeByName(f).ok());
  }
  EXPECT_EQ(m->ValidateComplete(c).code(), StatusCode::kConfigInvalid);
}

TEST(FeatureModelTest, ValidateRejectsTwoAlternatives) {
  auto m = SmallModel();
  Configuration c(m.get());
  for (const char* f : {"root", "M", "G", "A", "B"}) {
    ASSERT_TRUE(c.SelectByName(f).ok());
  }
  for (const char* f : {"O", "H", "X", "Y"}) {
    ASSERT_TRUE(c.ExcludeByName(f).ok());
  }
  EXPECT_EQ(m->ValidateComplete(c).code(), StatusCode::kConfigInvalid);
}

TEST(FeatureModelTest, ValidateRejectsEmptyOrGroup) {
  auto m = SmallModel();
  Configuration c(m.get());
  for (const char* f : {"root", "M", "G", "B", "H"}) {
    ASSERT_TRUE(c.SelectByName(f).ok());
  }
  for (const char* f : {"O", "A", "X", "Y"}) {
    ASSERT_TRUE(c.ExcludeByName(f).ok());
  }
  EXPECT_EQ(m->ValidateComplete(c).code(), StatusCode::kConfigInvalid);
}

TEST(FeatureModelTest, ValidateEnforcesCrossTreeConstraints) {
  auto m = SmallModel();
  Configuration c(m.get());
  // O selected but X excluded violates O requires X.
  for (const char* f : {"root", "M", "O", "G", "B", "H", "Y"}) {
    ASSERT_TRUE(c.SelectByName(f).ok());
  }
  for (const char* f : {"A", "X"}) {
    ASSERT_TRUE(c.ExcludeByName(f).ok());
  }
  EXPECT_EQ(m->ValidateComplete(c).code(), StatusCode::kConfigInvalid);
}

TEST(FeatureModelTest, PropagationSelectsForcedFeatures) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("O").ok());
  ASSERT_TRUE(m->Propagate(&c).ok());
  // O requires X; X's parent H follows; root and mandatory M, G follow.
  EXPECT_TRUE(c.IsSelected(*m->Find("X")));
  EXPECT_TRUE(c.IsSelected(*m->Find("H")));
  EXPECT_TRUE(c.IsSelected(*m->Find("M")));
  EXPECT_TRUE(c.IsSelected(*m->Find("G")));
}

TEST(FeatureModelTest, PropagationExcludesByConstraint) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("A").ok());
  ASSERT_TRUE(m->Propagate(&c).ok());
  EXPECT_TRUE(c.IsExcluded(*m->Find("Y")));  // A excludes Y
  EXPECT_TRUE(c.IsExcluded(*m->Find("B")));  // alternative sibling
}

TEST(FeatureModelTest, PropagationDetectsContradiction) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("A").ok());
  ASSERT_TRUE(c.SelectByName("Y").ok());  // A excludes Y
  EXPECT_EQ(m->Propagate(&c).code(), StatusCode::kConfigInvalid);
}

TEST(FeatureModelTest, LastGroupCandidateIsForced) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("H").ok());
  ASSERT_TRUE(c.ExcludeByName("X").ok());
  ASSERT_TRUE(m->Propagate(&c).ok());
  EXPECT_TRUE(c.IsSelected(*m->Find("Y")));  // only or-member left
}

TEST(FeatureModelTest, CompleteMinimalYieldsValidSmallVariant) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(m->CompleteMinimal(&c).ok());
  EXPECT_TRUE(m->ValidateComplete(c).ok());
  // Minimal: no optional features.
  EXPECT_FALSE(c.IsSelected(*m->Find("O")));
  EXPECT_FALSE(c.IsSelected(*m->Find("H")));
}

TEST(FeatureModelTest, CompleteMinimalHonorsSeedSelections) {
  auto m = SmallModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("O").ok());
  ASSERT_TRUE(m->CompleteMinimal(&c).ok());
  EXPECT_TRUE(m->ValidateComplete(c).ok());
  EXPECT_TRUE(c.IsSelected(*m->Find("O")));
  EXPECT_TRUE(c.IsSelected(*m->Find("X")));
}

TEST(FeatureModelTest, CountMatchesEnumeration) {
  auto m = SmallModel();
  auto count = m->CountVariants();
  ASSERT_TRUE(count.ok());
  std::vector<Configuration> variants;
  ASSERT_TRUE(m->ForEachVariant(Configuration(m.get()),
                                [&](const Configuration& v) {
                                  variants.push_back(v);
                                  return true;
                                })
                  .ok());
  EXPECT_EQ(*count, variants.size());
  // Manual count: G in {A,B}; H off: O must be off (O requires X) -> 2.
  // H on: members {X}, {Y}, {X,Y}; A excludes Y so with A: {X} only;
  //   with B: all 3. O requires X: with X present O free (x2), without X
  //   (only {Y}, B) O off -> with A: {X} * O in {on,off} = 2
  //   with B: {X}:2, {X,Y}:2, {Y}:1 -> 5. Total H-on = 7. Plus H-off = 2.
  EXPECT_EQ(*count, 9u);
  // Every enumerated variant validates; all signatures distinct.
  std::set<std::string> sigs;
  for (const Configuration& v : variants) {
    EXPECT_TRUE(m->ValidateComplete(v).ok());
    EXPECT_TRUE(sigs.insert(v.Signature()).second);
  }
}

TEST(FeatureModelTest, SearchRejectsConfigurationOfAnotherModel) {
  auto m = SmallModel();
  auto other = SmallModel();
  auto visit = [](const Configuration&) { return true; };
  for (const Configuration& foreign :
       {Configuration(other.get()), Configuration()}) {
    EXPECT_EQ(m->CountVariants(foreign).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(m->ForEachVariant(foreign, visit).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(FeatureModelTest, TreeStringShowsStructure) {
  auto m = SmallModel();
  std::string tree = m->ToTreeString();
  EXPECT_NE(tree.find("root"), std::string::npos);
  EXPECT_NE(tree.find("<alternative>"), std::string::npos);
  EXPECT_NE(tree.find("O requires X"), std::string::npos);
}

// ------------------------------------------------------------ parser

TEST(FmParserTest, ParsesSmallModel) {
  const char* dsl = R"(
    // comment
    feature root {
      mandatory M
      optional O
      mandatory G alternative {
        mandatory A
        mandatory B
      }
      optional H or {
        mandatory X
        mandatory Y
      }
    }
    constraints {
      O requires X;
      A excludes Y;
    }
  )";
  auto m = ParseModel(dsl);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ((*m)->size(), 9u);
  EXPECT_EQ((*m)->constraints().size(), 2u);
  EXPECT_EQ(*(*m)->CountVariants(), 9u);
}

TEST(FmParserTest, RoundTripThroughDsl) {
  auto m1 = SmallModel();
  std::string dsl = ToDsl(*m1);
  auto m2 = ParseModel(dsl);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString() << "\n" << dsl;
  EXPECT_EQ((*m2)->size(), m1->size());
  EXPECT_EQ(*(*m2)->CountVariants(), *m1->CountVariants());
}

TEST(FmParserTest, ReportsLineOnError) {
  auto m = ParseModel("feature root {\n  mandatory\n}");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kParseError);
  EXPECT_NE(m.status().message().find("line"), std::string::npos);
}

TEST(FmParserTest, RejectsUnknownConstraintFeature) {
  auto m = ParseModel("feature r { optional A }\nconstraints { A requires Zzz; }");
  EXPECT_FALSE(m.ok());
}

TEST(FmParserTest, RejectsGroupWithoutChildren) {
  auto m = ParseModel("feature r { optional A alternative }");
  EXPECT_FALSE(m.ok());
}

TEST(FmParserTest, RejectsTrailingInput) {
  auto m = ParseModel("feature r { optional A } garbage");
  EXPECT_FALSE(m.ok());
}

// ------------------------------------------------------------ FAME model

TEST(FameModelTest, ParsesAndHasFigureTwoFeatures) {
  auto m = fm::BuildFameDbmsModel();
  for (const char* f :
       {"FAME-DBMS", "OS-Abstraction", "Linux", "Win32", "NutOS",
        "Buffer-Manager", "Replacement", "LRU", "LFU", "Memory-Alloc",
        "Dynamic", "Static", "Storage", "Index", "B+-Tree", "List",
        "Data-Types", "Access", "Get", "Put", "Remove", "Update",
        "ReverseScan", "Transaction", "API", "SQL-Engine", "Optimizer"}) {
    EXPECT_TRUE(m->Has(f)) << f;
  }
}

TEST(FameModelTest, HasSubstantialVariantSpace) {
  auto m = fm::BuildFameDbmsModel();
  auto count = m->CountVariants();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  // The paper's point: even a prototype-scale model yields a configuration
  // space far beyond manual enumeration.
  EXPECT_GT(*count, 1000u);
}

TEST(FameModelTest, NutosForcesStaticAllocation) {
  auto m = fm::BuildFameDbmsModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("NutOS").ok());
  ASSERT_TRUE(m->Propagate(&c).ok());
  EXPECT_TRUE(c.IsSelected(*m->Find("Static")));
  EXPECT_TRUE(c.IsExcluded(*m->Find("Dynamic")));
  EXPECT_TRUE(c.IsExcluded(*m->Find("SQL-Engine")));
}

TEST(FameModelTest, OptimizerPullsSqlEngineAndApi) {
  auto m = fm::BuildFameDbmsModel();
  Configuration c(m.get());
  ASSERT_TRUE(c.SelectByName("Optimizer").ok());
  ASSERT_TRUE(m->Propagate(&c).ok());
  EXPECT_TRUE(c.IsSelected(*m->Find("SQL-Engine")));
  EXPECT_TRUE(c.IsSelected(*m->Find("API")));
  EXPECT_TRUE(c.IsSelected(*m->Find("B+-Tree")));
  EXPECT_TRUE(c.IsExcluded(*m->Find("List")));
}

TEST(FameModelTest, MinimalProductIsSmall) {
  auto m = fm::BuildFameDbmsModel();
  Configuration c(m.get());
  ASSERT_TRUE(m->CompleteMinimal(&c).ok());
  ASSERT_TRUE(m->ValidateComplete(c).ok());
  EXPECT_FALSE(c.IsSelected(*m->Find("Transaction")));
  EXPECT_FALSE(c.IsSelected(*m->Find("SQL-Engine")));
  // An alternative from each mandatory group is present.
  EXPECT_TRUE(c.IsSelected(*m->Find("Get")));
  EXPECT_TRUE(c.IsSelected(*m->Find("Put")));
}

TEST(FameModelTest, DslRoundTrip) {
  auto m = fm::BuildFameDbmsModel();
  auto m2 = ParseModel(ToDsl(*m));
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ((*m2)->size(), m->size());
  EXPECT_EQ(*(*m2)->CountVariants(), *m->CountVariants());
}

}  // namespace
}  // namespace fame::fm
