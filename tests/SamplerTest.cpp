//===- tests/SamplerTest.cpp - Sampling inference tests -------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "support/Snapshot.h"
#include "TestNetworks.h"

#include <cmath>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <unistd.h>

using namespace bayonet;

namespace {

SampleResult runSampled(std::string_view Src, SampleOptions Opts = {}) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  if (!Net)
    return {};
  return Sampler(Net->Spec, Opts).run();
}

TEST(SamplerTest, PingDeliversAlways) {
  SampleResult R = runSampled(testnets::PingNetwork);
  EXPECT_DOUBLE_EQ(R.Value, 1.0);
  EXPECT_DOUBLE_EQ(R.ErrorFraction, 0.0);
  EXPECT_EQ(R.Survivors, 1000u);
}

TEST(SamplerTest, CoinApproximatesThird) {
  SampleOptions Opts;
  Opts.Particles = 20000;
  SampleResult R = runSampled(testnets::CoinNetwork, Opts);
  EXPECT_NEAR(R.Value, 1.0 / 3.0, 0.02);
}

TEST(SamplerTest, DieExpectation) {
  SampleOptions Opts;
  Opts.Particles = 20000;
  SampleResult R = runSampled(testnets::DieNetwork, Opts);
  EXPECT_NEAR(R.Value, 3.5, 0.05);
  EXPECT_EQ(R.Kind, QueryKind::Expectation);
}

TEST(SamplerTest, ObservedDieConditionsCorrectly) {
  SampleOptions Opts;
  Opts.Particles = 20000;
  SampleResult R = runSampled(testnets::ObservedDieNetwork, Opts);
  EXPECT_NEAR(R.Value, 4.5, 0.05);
  // Roughly a third of the particles die on the observation (rejection) or
  // get resampled away (SMC); the estimate must still be unbiased.
}

TEST(SamplerTest, RejectionModeMatchesSmc) {
  SampleOptions Smc;
  Smc.Particles = 20000;
  Smc.Mode = SampleOptions::Method::Smc;
  SampleOptions Rej = Smc;
  Rej.Mode = SampleOptions::Method::Rejection;
  SampleResult A = runSampled(testnets::ObservedDieNetwork, Smc);
  SampleResult B = runSampled(testnets::ObservedDieNetwork, Rej);
  EXPECT_NEAR(A.Value, B.Value, 0.1);
  // Rejection loses the failed particles.
  EXPECT_LT(B.Survivors, 20000u * 8 / 10);
}

TEST(SamplerTest, AssertCountsAsError) {
  SampleOptions Opts;
  Opts.Particles = 20000;
  SampleResult R = runSampled(testnets::AssertDieNetwork, Opts);
  EXPECT_NEAR(R.ErrorFraction, 1.0 / 6.0, 0.02);
  EXPECT_NEAR(R.Value, 3.0, 0.05);
}

TEST(SamplerTest, DeterministicSeedReproducible) {
  SampleOptions Opts;
  Opts.Seed = 99;
  SampleResult A = runSampled(testnets::LossyNetwork, Opts);
  SampleResult B = runSampled(testnets::LossyNetwork, Opts);
  EXPECT_DOUBLE_EQ(A.Value, B.Value);
  Opts.Seed = 100;
  SampleResult C = runSampled(testnets::CoinNetwork, Opts);
  SampleResult D = runSampled(testnets::CoinNetwork, Opts);
  EXPECT_DOUBLE_EQ(C.Value, D.Value);
}

TEST(SamplerTest, AgreesWithExactOnPaperExample) {
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PaperExample, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Exact = ExactEngine(Net->Spec).run();
  SampleOptions Opts;
  Opts.Particles = 4000;
  SampleResult Approx = Sampler(Net->Spec, Opts).run();
  ASSERT_TRUE(Exact.concreteValue().has_value());
  // The paper's Table 1 shows exact/approximate differences < 0.03 for the
  // congestion benchmark; allow a slightly wider statistical margin.
  EXPECT_NEAR(Approx.Value, Exact.concreteValue()->toDouble(), 0.04);
}

TEST(SamplerTest, StdErrorIsCalibrated) {
  // For a Bernoulli(1/3) estimate with N particles the standard error is
  // sqrt(p(1-p)/N); the reported value must be close, and the exact value
  // must lie within ~3 standard errors of the estimate.
  SampleOptions Opts;
  Opts.Particles = 10000;
  SampleResult R = runSampled(testnets::CoinNetwork, Opts);
  double Expected = std::sqrt((1.0 / 3) * (2.0 / 3) / 10000);
  EXPECT_NEAR(R.StdError, Expected, Expected * 0.2);
  EXPECT_NEAR(R.Value, 1.0 / 3, 3.5 * R.StdError);
  // A deterministic outcome has zero spread.
  SampleResult Det = runSampled(testnets::PingNetwork, Opts);
  EXPECT_DOUBLE_EQ(Det.StdError, 0.0);
}

TEST(SamplerTest, PeakedObservationDegeneratesButStaysUnbiased) {
  // A d20 observed to land exactly on 20 kills ~95% of the particles in a
  // single step: the diagnostics must flag the collapse (min ESS fraction
  // below the warning threshold, at a recorded step, with a warning line)
  // while the resampled population still delivers the exact conditional
  // expectation E[x | x == 20] = 20.
  DiagEngine Diags;
  auto Net = loadNetwork(testnets::PeakedDieNetwork, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  auto Ctx = std::make_shared<ObsContext>(false, false, true);
  SampleOptions Opts;
  Opts.Particles = 4000;
  Opts.Seed = 3;
  Opts.Obs = Ctx;
  SampleResult R = Sampler(Net->Spec, Opts).run();
  ASSERT_TRUE(R.Status.ok());
  EXPECT_DOUBLE_EQ(R.Value, 20.0);

  DiagReport Rep = Ctx->diag()->report();
  EXPECT_LT(Rep.Summary.MinEssFraction, Ctx->diag()->essWarnFraction());
  EXPECT_NEAR(Rep.Summary.MinEssFraction, 0.05, 0.03);
  EXPECT_GE(Rep.Summary.MinEssStep, 0);
  EXPECT_GT(Rep.Summary.Resamples, 0u);
  ASSERT_FALSE(Rep.Summary.Warnings.empty());
  EXPECT_NE(Rep.Summary.Warnings.front().find("ESS fell to"),
            std::string::npos);
  // A well-conditioned network never trips the warning path.
  auto CalmCtx = std::make_shared<ObsContext>(false, false, true);
  SampleOptions CalmOpts;
  CalmOpts.Particles = 4000;
  CalmOpts.Seed = 3;
  CalmOpts.Obs = CalmCtx;
  DiagEngine CalmDiags;
  auto Calm = loadNetwork(testnets::CoinNetwork, CalmDiags);
  ASSERT_TRUE(Calm.has_value()) << CalmDiags.toString();
  SampleResult CalmR = Sampler(Calm->Spec, CalmOpts).run();
  ASSERT_TRUE(CalmR.Status.ok());
  EXPECT_TRUE(CalmCtx->diag()->report().Summary.Warnings.empty());
}

TEST(SamplerTest, StepBoundMakesErrorParticles) {
  std::string Src = testnets::PingNetwork;
  size_t Pos = Src.find("num_steps 10;");
  ASSERT_NE(Pos, std::string::npos);
  Src.replace(Pos, 13, "num_steps 1;");
  SampleResult R = runSampled(Src);
  EXPECT_GT(R.ErrorFraction, 0.99);
}

TEST(SamplerTest, MaskPickMatchesSchedulerChoices) {
  // The sampler picks from an enabled-slot mask; the exact engines from
  // choicesInto. On random enabled sets over 40 nodes (two mask words),
  // for every scheduler kind and at every cumulative boundary draw, both
  // must choose the same slot and successor state with the same number
  // of draws.
  constexpr unsigned Nodes = 40;
  std::vector<int64_t> Weights;
  for (unsigned I = 0; I < Nodes; ++I)
    Weights.push_back(1 + I % 5);
  for (SchedulerKind Kind :
       {SchedulerKind::Uniform, SchedulerKind::RoundRobin,
        SchedulerKind::Deterministic, SchedulerKind::Weighted}) {
    auto Sched = Scheduler::create(Kind, Weights);
    SCOPED_TRACE(Sched->name());
    const SlotSampler Picker(*Sched, Nodes);
    ASSERT_EQ(Picker.words(), 2u);
    Xoshiro Rng(7);
    std::vector<SchedChoice> Choices, Scratch;
    for (int Trial = 0; Trial < 300; ++Trial) {
      NetConfig C;
      C.Nodes.resize(Nodes);
      uint64_t Mask[2] = {0, 0};
      const uint64_t Density = 1 + Trial % 8; // 1 in Density slots.
      for (int64_t Slot = 0; Slot < 2 * Nodes; ++Slot) {
        if (Rng.nextBelow(Density))
          continue;
        Mask[Slot / 64] |= uint64_t(1) << (Slot % 64);
        NodeConfig &NC = C.Nodes.mut(Slot / 2);
        (Slot % 2 ? NC.QOut : NC.QIn) = PacketQueue(1);
        (Slot % 2 ? NC.QOut : NC.QIn).pushBack({});
      }
      C.SchedState = static_cast<int64_t>(Rng.nextBelow(2 * Nodes));
      Sched->choicesInto(C, Choices);
      int64_t Next = -1;
      if (Choices.empty()) {
        EXPECT_EQ(Picker.pick(Mask, C.SchedState, [] { return 0.0; },
                              Scratch, Next),
                  -1);
        continue;
      }
      std::vector<double> Draws = {0.0, std::nextafter(1.0, 0.0)};
      double Acc = 0;
      for (const SchedChoice &Ch : Choices) {
        Acc += Ch.Prob.toDouble();
        Draws.push_back(Acc);
        Draws.push_back(std::nextafter(Acc, 0.0));
      }
      for (double U : Draws) {
        // The one-pass step's rule over choicesInto.
        size_t Want = 0;
        if (Choices.size() > 1) {
          double Sum = 0;
          for (size_t I = 0; I < Choices.size(); ++I) {
            Sum += Choices[I].Prob.toDouble();
            if (U < Sum || I + 1 == Choices.size()) {
              Want = I;
              break;
            }
          }
        }
        unsigned Calls = 0;
        int64_t Got = Picker.pick(
            Mask, C.SchedState,
            [&] {
              ++Calls;
              return U;
            },
            Scratch, Next);
        ASSERT_EQ(Got, actionSlot(Choices[Want].Act)) << "U=" << U;
        EXPECT_EQ(Next, Choices[Want].NextSchedState);
        EXPECT_EQ(Calls, Choices.size() > 1 ? 1u : 0u);
      }
    }
  }
}

/// One pinned SMC answer at 2,000 particles: the exact bits of the
/// estimate, its standard error and the error fraction, and the survivor
/// count. A change to the sampler's step must leave every particle's draw
/// sequence intact, so these stay bit-identical at every thread count.
struct PinnedSmc {
  const char *Name; ///< Corpus stem, or one of the testnets below.
  uint64_t Seed;
  double Value;
  double StdError;
  double ErrorFraction;
  unsigned Survivors;
};

constexpr unsigned PinnedParticles = 2000;

// Every examples/programs/*.bay at seeds 1 and 2, plus a weighted and a
// round-robin network and two observing ones (the peaked one resamples)
// from TestNetworks.h.
const PinnedSmc PinnedTable[] = {
    {"congestion30_det", 1, 0x1p+0, 0x0p+0, 0x0p+0, 2000},
    {"congestion30_det", 2, 0x1p+0, 0x0p+0, 0x0p+0, 2000},
    {"congestion6", 1, 0x1.c6a7ef9db22d1p-2, 0x1.6c24b4892506ep-7, 0x0p+0,
     2000},
    {"congestion6", 2, 0x1.d604189374bc7p-2, 0x1.6d37051a450d8p-7, 0x0p+0,
     2000},
    {"figure2", 1, 0x1.cac083126e979p-2, 0x1.6c763c443b3bep-7, 0x0p+0, 2000},
    {"figure2", 2, 0x1.dba5e353f7ceep-2, 0x1.6d8631efda99dp-7, 0x0p+0, 2000},
    {"figure2_symbolic", 1, 0x0p+0, 0x0p+0, 0x1p+0, 2000},
    {"figure2_symbolic", 2, 0x0p+0, 0x0p+0, 0x1p+0, 2000},
    {"firewall", 1, 0x1.f604189374bc7p-1, 0x1.2947bc13021cep-6, 0x0p+0, 2000},
    {"firewall", 2, 0x1.f851eb851eb85p-1, 0x1.29e11aac505e4p-6, 0x0p+0, 2000},
    {"gossip30", 1, 0x1.7eae147ae147bp+4, 0x1.1ab0acc78ed28p-4, 0x0p+0, 2000},
    {"gossip30", 2, 0x1.7ba1cac083127p+4, 0x1.34d989f485475p-4, 0x0p+0, 2000},
    {"gossip4", 1, 0x1.beb851eb851ecp+1, 0x1.f887a640ed53fp-7, 0x0p+0, 2000},
    {"gossip4", 2, 0x1.bd1eb851eb852p+1, 0x1.fd9c780fdbe35p-7, 0x0p+0, 2000},
    {"loadbalancing", 1, 0x1.a1af286bca1afp-2, 0x1.d0df13bd6f85p-5, 0x0p+0, 76},
    {"loadbalancing", 2, 0x1.7829cbc14e5e1p-4, 0x1.e06c6b5793cdep-6, 0x0p+0,
     98},
    {"reliability30", 1, 0x1.ff3b645a1cac1p-1, 0x1.c5d1ccec47a0ap-11, 0x0p+0,
     2000},
    {"reliability30", 2, 0x1.fdf3b645a1cacp-1, 0x1.7213f36ad6944p-10, 0x0p+0,
     2000},
    {"reliability6", 1, 0x1p+0, 0x0p+0, 0x0p+0, 2000},
    {"reliability6", 2, 0x1.ffbe76c8b4396p-1, 0x1.0624dd2f1a911p-11, 0x0p+0,
     2000},
    {"reliability_bayes_123", 1, 0x1.b7d7c0c12f93fp-2, 0x1.80764f351a22ep-7,
     0x0p+0, 1781},
    {"reliability_bayes_123", 2, 0x1.de5c5d816ce65p-2, 0x1.81e061ffd368dp-7,
     0x0p+0, 1796},
    {"reliability_bayes_13", 1, 0x0p+0, 0x0p+0, 0x0p+0, 0},
    {"reliability_bayes_13", 2, 0x0p+0, 0x0p+0, 0x0p+0, 0},
    {"race_weighted", 1, 0x1.b6c8b43958106p-1, 0x1.00915444e524p-7, 0x0p+0,
     2000},
    {"race_weighted", 2, 0x1.b2f1a9fbe76c9p-1, 0x1.060e3d2c2fd34p-7, 0x0p+0,
     2000},
    {"tiny_congestion", 1, 0x1p+0, 0x0p+0, 0x0p+0, 2000},
    {"tiny_congestion", 2, 0x1p+0, 0x0p+0, 0x0p+0, 2000},
    {"observed_die", 1, 0x1.1c8934848ddb3p+2, 0x1.fe1f23371df0bp-6, 0x0p+0,
     1321},
    {"observed_die", 2, 0x1.1efc865efc866p+2, 0x1.fe6a56461a963p-6, 0x0p+0,
     1326},
    {"peaked_die", 1, 0x1.4p+4, 0x0p+0, 0x0p+0, 2000},
    {"peaked_die", 2, 0x1.4p+4, 0x0p+0, 0x0p+0, 2000},
};

std::string pinnedSource(const std::string &Name) {
  if (Name == "race_weighted")
    return testnets::raceNetwork("scheduler weighted { A -> 3, C -> 2 };");
  if (Name == "tiny_congestion")
    return testnets::TinyCongestion;
  if (Name == "observed_die")
    return testnets::ObservedDieNetwork;
  if (Name == "peaked_die")
    return testnets::PeakedDieNetwork;
  std::ifstream In(std::string(BAYONET_EXAMPLES_DIR) + "/" + Name + ".bay");
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// \p R as a PinnedTable row, so a mismatch prints the observed answer.
std::string pinnedRow(const PinnedSmc &P, const SampleResult &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "{\"%s\", %llu, %a, %a, %a, %u},", P.Name,
                static_cast<unsigned long long>(P.Seed), R.Value, R.StdError,
                R.ErrorFraction, R.Survivors);
  return Buf;
}

void expectPinned(const PinnedSmc &P, const SampleResult &R) {
  SCOPED_TRACE(pinnedRow(P, R));
  EXPECT_TRUE(R.Status.ok()) << R.Status.toString();
  EXPECT_EQ(R.Value, P.Value);
  EXPECT_EQ(R.StdError, P.StdError);
  EXPECT_EQ(R.ErrorFraction, P.ErrorFraction);
  EXPECT_EQ(R.Survivors, P.Survivors);
}

TEST(SamplerTest, PinnedEstimatesAtEveryThreadCount) {
  std::vector<std::string> Covered;
  for (const PinnedSmc &P : PinnedTable) {
    DiagEngine Diags;
    auto Net = loadNetwork(pinnedSource(P.Name), Diags);
    ASSERT_TRUE(Net.has_value()) << P.Name << ": " << Diags.toString();
    for (unsigned Threads : {1u, 3u}) {
      SCOPED_TRACE(std::string(P.Name) + " threads=" +
                   std::to_string(Threads));
      SampleOptions Opts;
      Opts.Particles = PinnedParticles;
      Opts.Seed = P.Seed;
      Opts.Threads = Threads;
      expectPinned(P, Sampler(Net->Spec, Opts).run());
    }
    Covered.push_back(P.Name);
  }
  // The table covers the whole corpus at both seeds.
  for (const auto &Entry :
       std::filesystem::directory_iterator(BAYONET_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".bay")
      continue;
    EXPECT_EQ(std::count(Covered.begin(), Covered.end(),
                         Entry.path().stem().string()),
              2)
        << Entry.path();
  }
}

TEST(SamplerTest, PinnedEstimateSurvivesCrashResume) {
  const PinnedSmc *P = nullptr;
  for (const PinnedSmc &Row : PinnedTable)
    if (std::string(Row.Name) == "reliability_bayes_123" && Row.Seed == 1)
      P = &Row;
  ASSERT_NE(P, nullptr);
  DiagEngine Diags;
  auto Net = loadNetwork(pinnedSource(P->Name), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  std::string Path = ::testing::TempDir() + "bayonet_pinned_smc_" +
                     std::to_string(::getpid()) + ".snap";
  auto checkpointer = [&](const std::string &Resume,
                          const std::string &Fault) {
    CheckpointOptions CO;
    CO.OutPath = Path;
    CO.ResumePath = Resume;
    CO.Fault = Fault;
    CO.Every = 1;
    return std::make_shared<Checkpointer>(CO);
  };
  SampleOptions Opts;
  Opts.Particles = PinnedParticles;
  Opts.Seed = P->Seed;
  Opts.Threads = 3;
  SampleOptions Crash = Opts;
  Crash.Checkpoint = checkpointer("", "crash-at-checkpoint=5");
  EXPECT_FALSE(Sampler(Net->Spec, Crash).run().Status.ok());
  SampleOptions Res = Opts;
  Res.Checkpoint = checkpointer(Path, "");
  expectPinned(*P, Sampler(Net->Spec, Res).run());
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

} // namespace
