// Tests for the NFP machinery: feedback repository (serialization),
// additive/similarity estimators on synthetic ground truth, greedy vs
// exhaustive derivation under resource constraints.
#include <gtest/gtest.h>

#include <set>

#include <cmath>

#include "common/random.h"
#include "featuremodel/fame_model.h"
#include "featuremodel/parser.h"
#include "nfp/optimizer.h"
#include "osal/env.h"

namespace fame::nfp {
namespace {

TEST(NfpKindTest, NamesRoundTrip) {
  for (int i = 0; i <= 4; ++i) {
    auto kind = static_cast<NfpKind>(i);
    auto back = NfpKindFromName(NfpKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(NfpKindFromName("bogus").ok());
}

TEST(NfpKindTest, Direction) {
  EXPECT_TRUE(LowerIsBetter(NfpKind::kBinarySize));
  EXPECT_TRUE(LowerIsBetter(NfpKind::kRamPeak));
  EXPECT_FALSE(LowerIsBetter(NfpKind::kThroughput));
}

TEST(FeedbackRepositoryTest, AddAndLookup) {
  FeedbackRepository repo;
  repo.Add({{"base", "tx"}, {{NfpKind::kBinarySize, 1000}}});
  repo.Add({{"base"}, {{NfpKind::kBinarySize, 600}}});
  EXPECT_EQ(repo.size(), 2u);
  auto p = repo.FindBySignature("base,tx");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->values.at(NfpKind::kBinarySize), 1000);
  EXPECT_FALSE(repo.FindBySignature("nope").has_value());
}

TEST(FeedbackRepositoryTest, ReplaceOnSameSignature) {
  FeedbackRepository repo;
  repo.Add({{"a", "b"}, {{NfpKind::kBinarySize, 1}}});
  repo.Add({{"b", "a"}, {{NfpKind::kBinarySize, 2}}});  // same set
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_DOUBLE_EQ(repo.FindBySignature("a,b")->values.at(NfpKind::kBinarySize),
                   2);
}

TEST(FeedbackRepositoryTest, SerializationRoundTrip) {
  FeedbackRepository repo;
  repo.Add({{"base", "crypto"},
            {{NfpKind::kBinarySize, 123456.5}, {NfpKind::kThroughput, 1e6}}});
  repo.Add({{"base"}, {{NfpKind::kRamPeak, 4096}}});
  auto back = FeedbackRepository::Deserialize(repo.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), 2u);
  EXPECT_DOUBLE_EQ(
      back->FindBySignature("base,crypto")->values.at(NfpKind::kBinarySize),
      123456.5);
  EXPECT_DOUBLE_EQ(
      back->FindBySignature("base")->values.at(NfpKind::kRamPeak), 4096);
}

TEST(FeedbackRepositoryTest, SaveLoadThroughEnv) {
  auto env = osal::NewMemEnv(0);
  FeedbackRepository repo;
  repo.Add({{"f1", "f2"}, {{NfpKind::kEnergy, 42}}});
  ASSERT_TRUE(repo.Save(env.get(), "repo.txt").ok());
  auto back = FeedbackRepository::Load(env.get(), "repo.txt");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 1u);
}

TEST(FeedbackRepositoryTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(FeedbackRepository::Deserialize("nfp binary_size 5").ok());
  EXPECT_FALSE(
      FeedbackRepository::Deserialize("product a\nnfp bogus 5").ok());
  EXPECT_FALSE(
      FeedbackRepository::Deserialize("product a\nwhatever").ok());
}

// Synthetic ground truth: size(S) = 100 + sum of per-feature costs.
FeedbackRepository AdditiveGroundTruth(const std::map<std::string, double>& costs,
                                       int products, uint64_t seed) {
  FeedbackRepository repo;
  Random rng(seed);
  std::vector<std::string> names;
  for (const auto& [f, c] : costs) names.push_back(f);
  for (int p = 0; p < products; ++p) {
    MeasuredProduct mp;
    double size = 100;
    for (const std::string& f : names) {
      if (rng.OneIn(2)) {
        mp.features.push_back(f);
        size += costs.at(f);
      }
    }
    mp.values[NfpKind::kBinarySize] = size;
    repo.Add(std::move(mp));
  }
  return repo;
}

TEST(AdditiveEstimatorTest, RecoversPerFeatureCosts) {
  std::map<std::string, double> costs = {
      {"tx", 50}, {"crypto", 30}, {"rep", 80}, {"hash", 20}, {"queue", 10}};
  FeedbackRepository repo = AdditiveGroundTruth(costs, 40, 7);
  auto est = AdditiveEstimator::Fit(repo, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  for (const auto& [f, c] : costs) {
    EXPECT_NEAR(est->FeatureWeight(f), c, 1.0) << f;
  }
  EXPECT_NEAR(est->intercept(), 100, 2.0);
  EXPECT_LT(est->TrainingMae(), 1.0);
  // Prediction on an unseen combination is near-exact.
  EXPECT_NEAR(est->Estimate(std::set<std::string>{"tx", "queue"}), 160, 2.0);
}

TEST(AdditiveEstimatorTest, NeedsTwoProducts) {
  FeedbackRepository repo;
  repo.Add({{"a"}, {{NfpKind::kBinarySize, 1}}});
  EXPECT_FALSE(AdditiveEstimator::Fit(repo, NfpKind::kBinarySize).ok());
}

TEST(SimilarityEstimatorTest, ExactNeighbourDominates) {
  // Non-additive ground truth: interaction between tx and crypto.
  FeedbackRepository repo;
  repo.Add({{"base"}, {{NfpKind::kBinarySize, 100}}});
  repo.Add({{"base", "tx"}, {{NfpKind::kBinarySize, 150}}});
  repo.Add({{"base", "crypto"}, {{NfpKind::kBinarySize, 130}}});
  repo.Add({{"base", "crypto", "tx"}, {{NfpKind::kBinarySize, 250}}});  // +70!
  auto est = SimilarityEstimator::Fit(repo, NfpKind::kBinarySize, 1);
  ASSERT_TRUE(est.ok());
  // Estimating a measured product reproduces its measurement closely
  // (the k=1 neighbour is the product itself).
  EXPECT_NEAR(est->Estimate(std::set<std::string>{"base", "crypto", "tx"}),
              250, 1.0);
  EXPECT_NEAR(est->Estimate(std::set<std::string>{"base"}), 100, 1.0);
}

TEST(SimilarityEstimatorTest, ImprovesOnAdditiveForInteractions) {
  // Ground truth with a pairwise interaction term.
  std::map<std::string, double> costs = {{"a", 10}, {"b", 20}, {"c", 40}};
  Random rng(11);
  FeedbackRepository repo;
  auto truth = [&](const std::set<std::string>& s) {
    double v = 100;
    for (const auto& f : s) v += costs.at(f);
    if (s.count("a") && s.count("b")) v += 35;  // interaction
    return v;
  };
  std::vector<std::set<std::string>> all;
  for (int mask = 0; mask < 8; ++mask) {
    std::set<std::string> s;
    if (mask & 1) s.insert("a");
    if (mask & 2) s.insert("b");
    if (mask & 4) s.insert("c");
    all.push_back(s);
    MeasuredProduct mp;
    mp.features.assign(s.begin(), s.end());
    mp.values[NfpKind::kBinarySize] = truth(s);
    repo.Add(std::move(mp));
  }
  auto additive = AdditiveEstimator::Fit(repo, NfpKind::kBinarySize);
  auto sim = SimilarityEstimator::Fit(repo, NfpKind::kBinarySize, 1);
  ASSERT_TRUE(additive.ok());
  ASSERT_TRUE(sim.ok());
  double add_err = 0, sim_err = 0;
  for (const auto& s : all) {
    add_err += std::fabs(additive->Estimate(s) - truth(s));
    sim_err += std::fabs(sim->Estimate(s) - truth(s));
  }
  EXPECT_LT(sim_err, add_err);  // the paper's corrected values are better
  EXPECT_LT(sim_err, 1.0);      // near-exact on measured products
}

// ------------------------------------------------------------ optimizers

/// Model: root with 4 optional features of known cost/utility.
std::unique_ptr<fm::FeatureModel> KnapsackModel() {
  auto m = fm::ParseModel(R"(
    feature root {
      optional f1
      optional f2
      optional f3
      optional f4
    }
  )");
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

FeedbackRepository KnapsackRepo() {
  // size(S) = 100 + 50*f1 + 30*f2 + 25*f3 + 10*f4 (pure additive).
  std::map<std::string, double> costs = {
      {"f1", 50}, {"f2", 30}, {"f3", 25}, {"f4", 10}};
  FeedbackRepository repo;
  for (int mask = 0; mask < 16; ++mask) {
    MeasuredProduct mp;
    double size = 100;
    mp.features.push_back("root");
    int bit = 1;
    for (const auto& [f, c] : costs) {
      if (mask & bit) {
        mp.features.push_back(f);
        size += c;
      }
      bit <<= 1;
    }
    mp.values[NfpKind::kBinarySize] = size;
    repo.Add(std::move(mp));
  }
  return repo;
}

TEST(OptimizerTest, GreedyRespectsBudget) {
  auto model = KnapsackModel();
  FeedbackRepository repo = KnapsackRepo();
  DerivationRequest req;
  req.partial = fm::Configuration(model.get());
  req.constraints = {{NfpKind::kBinarySize, 170}};
  req.utility = {{"f1", 5}, {"f2", 4}, {"f3", 3}, {"f4", 1}};
  auto est = FitEstimators(repo, req.constraints);
  ASSERT_TRUE(est.ok());
  auto result = GreedyDerive(*model, req, *est);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->estimates.at(NfpKind::kBinarySize), 170.5);
  EXPECT_GT(result->utility, 0);
}

TEST(OptimizerTest, ExhaustiveFindsOptimum) {
  auto model = KnapsackModel();
  FeedbackRepository repo = KnapsackRepo();
  DerivationRequest req;
  req.partial = fm::Configuration(model.get());
  // Budget 170 over base 100 leaves 70: best utility = f2+f3+f4 (cost 65,
  // utility 8) vs f1+f4 (60, 6) vs f1+f2 would be 80 > 70.
  req.constraints = {{NfpKind::kBinarySize, 170}};
  req.utility = {{"f1", 5}, {"f2", 4}, {"f3", 3}, {"f4", 1}};
  auto est = FitEstimators(repo, req.constraints);
  ASSERT_TRUE(est.ok());
  auto result = ExhaustiveDerive(*model, req, *est);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->utility, 8);
  EXPECT_TRUE(result->config.IsSelected(*model->Find("f2")));
  EXPECT_TRUE(result->config.IsSelected(*model->Find("f3")));
  EXPECT_TRUE(result->config.IsSelected(*model->Find("f4")));
  EXPECT_FALSE(result->config.IsSelected(*model->Find("f1")));
}

TEST(OptimizerTest, GreedyNeverBeatenNorInvalid) {
  // Property over random instances: greedy utility <= exhaustive utility,
  // and greedy always returns a budget-satisfying valid variant.
  auto model = KnapsackModel();
  FeedbackRepository repo = KnapsackRepo();
  Random rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    DerivationRequest req;
    req.partial = fm::Configuration(model.get());
    req.constraints = {
        {NfpKind::kBinarySize, 100 + static_cast<double>(rng.Uniform(130))}};
    for (const char* f : {"f1", "f2", "f3", "f4"}) {
      req.utility[f] = 1 + static_cast<double>(rng.Uniform(9));
    }
    auto est = FitEstimators(repo, req.constraints);
    ASSERT_TRUE(est.ok());
    auto greedy = GreedyDerive(*model, req, *est);
    auto exact = ExhaustiveDerive(*model, req, *est);
    ASSERT_EQ(greedy.ok(), exact.ok());
    if (!greedy.ok()) continue;  // infeasible budget
    EXPECT_LE(greedy->utility, exact->utility + 1e-9);
    EXPECT_TRUE(model->ValidateComplete(greedy->config).ok());
    EXPECT_LE(greedy->estimates.at(NfpKind::kBinarySize),
              req.constraints[0].max_value + 0.5);
    // Greedy evaluates far fewer candidates than exhaustive enumerates.
    EXPECT_LE(greedy->evaluated, exact->evaluated * 4);
  }
}

TEST(OptimizerTest, InfeasibleBudgetFailsCleanly) {
  auto model = KnapsackModel();
  FeedbackRepository repo = KnapsackRepo();
  DerivationRequest req;
  req.partial = fm::Configuration(model.get());
  req.constraints = {{NfpKind::kBinarySize, 50}};  // below the base size
  auto est = FitEstimators(repo, req.constraints);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(GreedyDerive(*model, req, *est).status().code(),
            StatusCode::kConfigInvalid);
  EXPECT_EQ(ExhaustiveDerive(*model, req, *est).status().code(),
            StatusCode::kConfigInvalid);
}

TEST(OptimizerTest, PartialSelectionsAreRespected) {
  auto model = KnapsackModel();
  FeedbackRepository repo = KnapsackRepo();
  DerivationRequest req;
  req.partial = fm::Configuration(model.get());
  ASSERT_TRUE(req.partial.SelectByName("f1").ok());   // forced by the app
  ASSERT_TRUE(req.partial.ExcludeByName("f4").ok());  // forbidden
  req.constraints = {{NfpKind::kBinarySize, 250}};
  req.utility = {{"f2", 1}};
  auto est = FitEstimators(repo, req.constraints);
  ASSERT_TRUE(est.ok());
  for (auto* derive : {&GreedyDerive}) {
    auto result = (*derive)(*model, req, *est);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->config.IsSelected(*model->Find("f1")));
    EXPECT_FALSE(result->config.IsSelected(*model->Find("f4")));
  }
  auto exact = ExhaustiveDerive(*model, req, *est);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->config.IsSelected(*model->Find("f1")));
  EXPECT_FALSE(exact->config.IsSelected(*model->Find("f4")));
}

// Every product of a shipped NFP seed must name only features of the
// Figure 2 model (guards against the seed and the model drifting apart).
void ExpectSeedNamesModelFeatures(const FeedbackRepository& repo) {
  auto model = fm::BuildFameDbmsModel();
  for (const auto& product : repo.products()) {
    for (const std::string& f : product.features) {
      EXPECT_TRUE(model->Has(f)) << "seed names unknown feature " << f;
    }
  }
}

// The shipped integrity NFP seed (measured Scrub/Verify/Repair costs) must
// stay loadable and usable: derivation tooling fits estimators straight
// from it, so a format or name drift here breaks `fame advise`-style flows
// silently.
TEST(FeedbackTest, IntegrityNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameIntegrityNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 4u);

  auto est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  // Each integrity feature must carry a real (positive) code-size cost,
  // and the full stack must estimate above the base product.
  std::vector<std::string> base = {"API",       "B+-Tree", "BTree-Search",
                                   "Dynamic",   "Get",     "Int-Types",
                                   "LRU",       "Linux",   "Put",
                                   "String-Types"};
  std::vector<std::string> full = base;
  full.insert(full.end(), {"Scrub", "Verify", "Repair"});
  EXPECT_GT(est->Estimate(full), est->Estimate(base));
  EXPECT_GT(est->FeatureWeight("Scrub"), 0.0);

  ExpectSeedNamesModelFeatures(*repo_or);
}

// Same guarantees for the Concurrency NFP seed (sharded pool + group
// commit): loadable, fits both kinds, and the feature carries a measured
// positive code-size cost and throughput gain.
TEST(FeedbackTest, ConcurrencyNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameConcurrencyNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 2u);

  std::vector<std::string> base = {
      "API", "B+-Tree", "BTree-Search", "Dynamic",     "Get",
      "Int-Types",      "LRU",          "Linux",       "Put",
      "String-Types",   "Transaction",  "Update",      "WAL-Redo"};
  std::vector<std::string> conc = base;
  conc.push_back("Concurrency");

  auto size_est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(size_est.ok()) << size_est.status().ToString();
  EXPECT_GT(size_est->FeatureWeight("Concurrency"), 0.0);
  EXPECT_GT(size_est->Estimate(conc), size_est->Estimate(base));

  auto tput_est = AdditiveEstimator::Fit(*repo_or, NfpKind::kThroughput);
  ASSERT_TRUE(tput_est.ok()) << tput_est.status().ToString();
  EXPECT_GT(tput_est->Estimate(conc), tput_est->Estimate(base));

  ExpectSeedNamesModelFeatures(*repo_or);
}

// Same guarantees for the ReverseScan NFP seed (descending cursor
// iteration): loadable, fits, positive footprint, names valid features.
TEST(FeedbackTest, ReverseScanNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameReverseScanNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 2u);

  std::vector<std::string> base = {"API",       "B+-Tree", "BTree-Search",
                                   "Dynamic",   "Get",     "Int-Types",
                                   "LRU",       "Linux",   "Put",
                                   "String-Types"};
  std::vector<std::string> rev = base;
  rev.push_back("ReverseScan");

  auto size_est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(size_est.ok()) << size_est.status().ToString();
  EXPECT_GT(size_est->FeatureWeight("ReverseScan"), 0.0);
  EXPECT_GT(size_est->Estimate(rev), size_est->Estimate(base));

  ExpectSeedNamesModelFeatures(*repo_or);
}

// Same guarantees for the Observability NFP seed (metrics registry +
// tracing probes): loadable, fits, each sub-feature carries a positive
// measured footprint, and the stacked selections estimate in cost order
// base < +Observability < +Observability+Tracing.
TEST(FeedbackTest, ObservabilityNfpSeedLoadsAndFits) {
  auto repo_or =
      FeedbackRepository::Deserialize(fm::kFameObservabilityNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 3u);

  std::vector<std::string> base = {"API",       "B+-Tree", "BTree-Search",
                                   "Dynamic",   "Get",     "Int-Types",
                                   "LRU",       "Linux",   "Put",
                                   "String-Types"};
  std::vector<std::string> obs = base;
  obs.push_back("Observability");
  std::vector<std::string> traced = obs;
  traced.push_back("Tracing");

  auto est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->FeatureWeight("Observability"), 0.0);
  EXPECT_GT(est->FeatureWeight("Tracing"), 0.0);
  EXPECT_GT(est->Estimate(obs), est->Estimate(base));
  EXPECT_GT(est->Estimate(traced), est->Estimate(obs));

  ExpectSeedNamesModelFeatures(*repo_or);
}

// Same guarantees for the Backup NFP seed (segmented WAL + hot backup +
// PITR): loadable, fits, the Backup+Pitr pair carries a positive measured
// footprint, names valid features. The pair is measured jointly (Pitr adds
// no probe code of its own), so the ordering assertion is on the combined
// selection rather than per-feature weights.
TEST(FeedbackTest, BackupNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameBackupNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 2u);

  std::vector<std::string> base = {
      "API", "B+-Tree", "BTree-Search", "Dynamic",     "Get",
      "Int-Types", "LRU", "Linux",      "Put",         "String-Types",
      "Transaction", "Update", "WAL-Redo"};
  std::vector<std::string> backed = base;
  backed.push_back("Backup");
  backed.push_back("Pitr");

  auto est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->Estimate(backed), est->Estimate(base));
  EXPECT_GT(est->FeatureWeight("Backup") + est->FeatureWeight("Pitr"), 0.0);

  ExpectSeedNamesModelFeatures(*repo_or);
}

// And for the Replication NFP seed (WAL shipping + epoch-fenced failover):
// the pair of measured products differs only in Replication+Failover, so
// the fitted joint footprint of the two features must be the measured
// delta — the paper's per-feature cost accounting extended to the
// replication axis. Measured jointly like Backup+Pitr (Failover adds the
// promotion ceremony, not a separately measurable probe).
TEST(FeedbackTest, ReplicationNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameReplicationNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 2u);

  std::vector<std::string> base = {
      "API",          "B+-Tree", "BTree-Search", "Backup", "Dynamic",
      "Get",          "Int-Types", "LRU",        "Linux",  "Put",
      "String-Types", "Transaction", "Update",   "Verify", "WAL-Redo"};
  std::vector<std::string> replicated = base;
  replicated.push_back("Replication");
  replicated.push_back("Failover");

  auto est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->Estimate(replicated), est->Estimate(base));
  EXPECT_GT(est->FeatureWeight("Replication") + est->FeatureWeight("Failover"),
            0.0);

  ExpectSeedNamesModelFeatures(*repo_or);
}

// And for the Memory-Alloc NFP seed (Dynamic vs Static slab arena): the
// pair of measured products differs only in the allocator alternative, so
// the estimator must price the Static product above the Dynamic one by
// the measured slab-arena footprint — the paper's Figure-2 axis with a
// real cost attached to each side.
TEST(FeedbackTest, SlabAllocNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameSlabAllocNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 2u);

  std::vector<std::string> dynamic = {
      "API", "B+-Tree", "BTree-Search", "Dynamic",      "Get", "Int-Types",
      "LRU", "Linux",   "Put",          "Remove",       "String-Types"};
  std::vector<std::string> statics = {
      "API", "B+-Tree", "BTree-Search", "Get",          "Int-Types",
      "LRU", "Linux",   "Put",          "Remove",       "Static",
      "String-Types"};

  auto est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->Estimate(statics), est->Estimate(dynamic));

  ExpectSeedNamesModelFeatures(*repo_or);
}

// And for the Mvcc NFP seed (Transaction ▸ Mvcc snapshot isolation): the
// pair of measured probe products differs only in the Mvcc selection, so
// the estimator must attribute the whole measured delta — version-chain
// codec, timestamp oracle, snapshot registry, conflict table, GC — to
// that one feature and price the Mvcc product strictly above its plain
// 2PL twin.
TEST(FeedbackTest, MvccNfpSeedLoadsAndFits) {
  auto repo_or = FeedbackRepository::Deserialize(fm::kFameMvccNfpSeed);
  ASSERT_TRUE(repo_or.ok()) << repo_or.status().ToString();
  EXPECT_EQ(repo_or->size(), 2u);

  std::vector<std::string> plain = {
      "API",    "B+-Tree", "BTree-Remove", "BTree-Search", "BTree-Update",
      "Dynamic", "Get",    "Int-Types",    "LRU",          "Linux",
      "Put",    "Remove",  "String-Types", "Transaction",  "Update",
      "WAL-Redo"};
  std::vector<std::string> versioned = plain;
  versioned.push_back("Mvcc");

  auto est = AdditiveEstimator::Fit(*repo_or, NfpKind::kBinarySize);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->Estimate(versioned), est->Estimate(plain));
  EXPECT_GT(est->FeatureWeight("Mvcc"), 0.0);

  ExpectSeedNamesModelFeatures(*repo_or);
}

}  // namespace
}  // namespace fame::nfp
