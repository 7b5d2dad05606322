//===- tests/FuzzDiffTest.cpp - Randomized differential testing -----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing: generate random (but well-formed) Bayonet
/// networks from a seeded grammar and check, for every seed, that
///  - the direct exact engine and the translate-to-PSI exact engine agree
///    on all three masses bit for bit;
///  - probability mass is conserved;
///  - the printer round-trips through the parser to the same answer.
/// This is the strongest evidence that the translation (the paper's core
/// architectural claim) is semantics-preserving beyond the hand-picked
/// benchmarks.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "lang/AstPrinter.h"
#include "psi/PsiExact.h"
#include "support/Prng.h"
#include "support/Snapshot.h"
#include "translate/Translator.h"

#include <gtest/gtest.h>

#include <optional>

using namespace bayonet;

namespace {

/// Generates a random well-formed Bayonet network for a seed.
class NetworkGen {
public:
  explicit NetworkGen(uint64_t Seed) : Rng(Seed) {}

  std::string generate() {
    NumNodes = 2 + Rng.nextBelow(3); // 2..4 nodes
    std::string Out = topology();
    Out += "packet_fields { f }\n";
    Out += programsBlock();
    for (unsigned I = 0; I < NumNodes; ++I)
      Out += defOf(I);
    Out += initBlock();
    Out += "scheduler uniform;\n";
    Out += "queue_capacity " + std::to_string(1 + Rng.nextBelow(3)) + ";\n";
    Out += "num_steps 14;\n";
    Out += query();
    return Out;
  }

private:
  Xoshiro Rng;
  unsigned NumNodes = 2;
  // Degree of each node (ports 1..deg are connected).
  std::vector<unsigned> Degree;

  std::string node(unsigned I) { return "N" + std::to_string(I); }

  std::string topology() {
    // A random connected topology: a path through all nodes plus an
    // optional chord. Port p of node i is its p-th incident link.
    Degree.assign(NumNodes, 0);
    std::string Links;
    auto addLink = [&](unsigned A, unsigned B) {
      ++Degree[A];
      ++Degree[B];
      if (!Links.empty())
        Links += ", ";
      Links += "(" + node(A) + ",pt" + std::to_string(Degree[A]) + ") <-> (" +
               node(B) + ",pt" + std::to_string(Degree[B]) + ")";
    };
    for (unsigned I = 0; I + 1 < NumNodes; ++I)
      addLink(I, I + 1);
    if (NumNodes >= 3 && Rng.flip(0.5))
      addLink(0, NumNodes - 1);
    std::string Nodes;
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (I)
        Nodes += ", ";
      Nodes += node(I);
    }
    return "topology {\n  nodes { " + Nodes + " }\n  links { " + Links +
           " }\n}\n";
  }

  std::string programsBlock() {
    std::string Out = "programs { ";
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (I)
        Out += ", ";
      Out += node(I) + " -> p" + std::to_string(I);
    }
    return Out + " }\n";
  }

  std::string randExpr() {
    switch (Rng.nextBelow(6)) {
    case 0:
      return "x + 1";
    case 1:
      return "x + flip(1/3)";
    case 2:
      return "uniformInt(0, 2)";
    case 3:
      return "pkt.f";
    case 4:
      return "x - 1";
    default:
      return std::to_string(Rng.nextBelow(4));
    }
  }

  std::string randBodyStmt(unsigned NodeIdx) {
    (void)NodeIdx;
    switch (Rng.nextBelow(5)) {
    case 0:
      return "  x = " + randExpr() + ";\n";
    case 1:
      return "  pkt.f = " + randExpr() + ";\n";
    case 2:
      return "  if flip(1/2) { x = x + 1; } else { skip; }\n";
    case 3:
      return "  if pkt.f == 0 { x = x + 2; }\n";
    default:
      return "  observe(x >= 0 or pkt.f >= 0);\n"; // Always true: harmless.
    }
  }

  /// A terminal action that consumes the head packet, so Run actions make
  /// progress. Forwarding may bounce packets around; the step bound turns
  /// surviving cycles into error mass (checked identically by both
  /// engines).
  std::string terminalStmt(unsigned NodeIdx) {
    unsigned Deg = Degree[NodeIdx];
    switch (Rng.nextBelow(4)) {
    case 0:
      return "  drop;\n";
    case 1:
      return "  fwd(" + std::to_string(1 + Rng.nextBelow(Deg)) + ");\n";
    case 2:
      return "  if flip(1/2) { fwd(" + std::to_string(1 + Rng.nextBelow(Deg)) +
             "); } else { drop; }\n";
    default:
      return "  if cnt < 2 { fwd(uniformInt(1, " + std::to_string(Deg) +
             ")); } else { drop; }\n";
    }
  }

  std::string defOf(unsigned I) {
    std::string Out = "def p" + std::to_string(I) +
                      "(pkt, pt) state x(" +
                      (Rng.flip(0.3) ? "flip(1/4)" : "0") + "), cnt(0) {\n";
    Out += "  cnt = cnt + 1;\n";
    unsigned NumStmts = Rng.nextBelow(3);
    for (unsigned S = 0; S < NumStmts; ++S)
      Out += randBodyStmt(I);
    Out += terminalStmt(I);
    Out += "}\n";
    return Out;
  }

  std::string initBlock() {
    std::string Out = "init { " + node(Rng.nextBelow(NumNodes));
    if (Rng.flip(0.5))
      Out += " { f = " + std::to_string(Rng.nextBelow(3)) + " }";
    if (Rng.flip(0.4))
      Out += ", " + node(Rng.nextBelow(NumNodes));
    return Out + " }\n";
  }

  std::string query() {
    std::string Target = node(Rng.nextBelow(NumNodes));
    switch (Rng.nextBelow(3)) {
    case 0:
      return "query probability(x@" + Target + " >= 1);\n";
    case 1:
      return "query expectation(cnt@*);\n";
    default:
      return "query probability(cnt@" + Target + " == 1);\n";
    }
  }
};

class FuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDiffTest, DirectVersusTranslated) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  ExactResult Direct = ExactEngine(Net->Spec).run();
  ASSERT_FALSE(Direct.QueryUnsupported) << Direct.UnsupportedReason;

  DiagEngine TDiags;
  auto Psi = translateToPsi(Net->Spec, TDiags);
  ASSERT_TRUE(Psi.has_value()) << TDiags.toString();
  PsiExactResult Translated = PsiExact(*Psi).run();
  ASSERT_FALSE(Translated.QueryUnsupported) << Translated.UnsupportedReason;

  EXPECT_TRUE(Direct.QueryMass == Translated.QueryMass)
      << "direct " << Direct.QueryMass.toString(Net->Spec.Params)
      << "\ntranslated " << Translated.QueryMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Direct.OkMass == Translated.OkMass)
      << "direct " << Direct.OkMass.toString(Net->Spec.Params)
      << "\ntranslated " << Translated.OkMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Direct.ErrorMass == Translated.ErrorMass)
      << "direct " << Direct.ErrorMass.toString(Net->Spec.Params)
      << "\ntranslated " << Translated.ErrorMass.toString(Net->Spec.Params);

  // Mass conservation: observes in the generator are tautologies, so all
  // mass is accounted for.
  Rational Total =
      Direct.OkMass.concreteValue() + Direct.ErrorMass.concreteValue();
  EXPECT_EQ(Total, Rational(1));
}

// The same seeds under the round-robin rotor, which the translator models
// as a scheduler-state slot that must survive every merge.
TEST_P(FuzzDiffTest, DirectVersusTranslatedRoundRobin) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  size_t Pos = Source.find("scheduler uniform;");
  ASSERT_NE(Pos, std::string::npos);
  Source.replace(Pos, 18, "scheduler roundrobin;");
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult Direct = ExactEngine(Net->Spec).run();
  ASSERT_FALSE(Direct.QueryUnsupported) << Direct.UnsupportedReason;

  DiagEngine TDiags;
  auto Psi = translateToPsi(Net->Spec, TDiags);
  ASSERT_TRUE(Psi.has_value()) << TDiags.toString();
  PsiExactResult Translated = PsiExact(*Psi).run();
  ASSERT_FALSE(Translated.QueryUnsupported) << Translated.UnsupportedReason;

  EXPECT_TRUE(Direct.QueryMass == Translated.QueryMass)
      << "direct " << Direct.QueryMass.toString(Net->Spec.Params)
      << "\ntranslated " << Translated.QueryMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Direct.OkMass == Translated.OkMass)
      << "direct " << Direct.OkMass.toString(Net->Spec.Params)
      << "\ntranslated " << Translated.OkMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Direct.ErrorMass == Translated.ErrorMass)
      << "direct " << Direct.ErrorMass.toString(Net->Spec.Params)
      << "\ntranslated " << Translated.ErrorMass.toString(Net->Spec.Params);
}

TEST_P(FuzzDiffTest, PrintReparseIdentity) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine D1;
  auto Net1 = loadNetwork(Source, D1);
  ASSERT_TRUE(Net1.has_value()) << D1.toString();
  ExactResult R1 = ExactEngine(Net1->Spec).run();

  DiagEngine D2;
  auto Net2 = loadNetwork(printSourceFile(*Net1->File), D2);
  ASSERT_TRUE(Net2.has_value()) << D2.toString();
  ExactResult R2 = ExactEngine(Net2->Spec).run();

  EXPECT_TRUE(R1.QueryMass == R2.QueryMass);
  EXPECT_TRUE(R1.OkMass == R2.OkMass);
  EXPECT_TRUE(R1.ErrorMass == R2.ErrorMass);
}

// Observability must be a pure observer: running the exact engine with
// tracing and metrics live cannot perturb a single bit of the answer.
TEST_P(FuzzDiffTest, TracingInvariance) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  ExactResult Plain = ExactEngine(Net->Spec).run();

  auto Ctx = std::make_shared<ObsContext>(true, true);
  ExactOptions Opts;
  Opts.Obs = Ctx;
  ExactResult Traced = ExactEngine(Net->Spec, Opts).run();

  EXPECT_TRUE(Plain.QueryMass == Traced.QueryMass)
      << "plain " << Plain.QueryMass.toString(Net->Spec.Params)
      << "\ntraced " << Traced.QueryMass.toString(Net->Spec.Params);
  EXPECT_TRUE(Plain.OkMass == Traced.OkMass);
  EXPECT_TRUE(Plain.ErrorMass == Traced.ErrorMass);
  EXPECT_EQ(Plain.ConfigsExpanded, Traced.ConfigsExpanded);
  EXPECT_EQ(Plain.MergeHits, Traced.MergeHits);
  EXPECT_GT(Ctx->tracer()->numEvents(), 0u);
}

// The successor-transition cache must be invisible in the answer: cache
// off, cache on, and a tiny byte cap that forces constant eviction all
// produce bit-identical masses and expansion statistics.
TEST_P(FuzzDiffTest, TxCacheInvariance) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  ExactOptions Off;
  Off.TxCacheBytes = 0;
  ExactResult Plain = ExactEngine(Net->Spec, Off).run();

  for (uint64_t Cap : {TxCacheDefaultBytes, uint64_t(4096)}) {
    ExactOptions On;
    On.TxCacheBytes = Cap;
    ExactResult Cached = ExactEngine(Net->Spec, On).run();
    EXPECT_TRUE(Plain.QueryMass == Cached.QueryMass)
        << "plain " << Plain.QueryMass.toString(Net->Spec.Params)
        << "\ncached " << Cached.QueryMass.toString(Net->Spec.Params);
    EXPECT_TRUE(Plain.OkMass == Cached.OkMass);
    EXPECT_TRUE(Plain.ErrorMass == Cached.ErrorMass);
    EXPECT_EQ(Plain.ConfigsExpanded, Cached.ConfigsExpanded);
    EXPECT_EQ(Plain.MergeHits, Cached.MergeHits);
    EXPECT_EQ(Plain.TerminalConfigs, Cached.TerminalConfigs);
  }
}

// The translated pipeline's arm transition cache and block arena must be
// invisible in the answer: cache off, on, and a tiny byte cap that keeps
// evicting, each with the arena on and off, give bit-identical masses,
// branches, merges and parked counts at --threads 1/2/8, and within each
// cache setting the cache counters are thread-count-invariant (lanes only
// read the entries published at serial boundaries).
TEST_P(FuzzDiffTest, PsiArmCacheInvariance) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  auto Psi = translateToPsi(Net->Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();

  auto runWith = [&](uint64_t TxBytes, uint64_t InternBytes,
                     unsigned Threads) {
    PsiExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.TxCacheBytes = TxBytes;
    Opts.InternBytes = InternBytes;
    return PsiExact(*Psi, Opts).run();
  };
  PsiExactResult Base = runWith(0, 0, 1);
  ASSERT_TRUE(Base.Status.ok()) << Base.Status.toString();
  ASSERT_FALSE(Base.QueryUnsupported) << Base.UnsupportedReason;
  EXPECT_EQ(Base.TxHits + Base.TxMisses, 0u);
  for (uint64_t Cap : {uint64_t(0), TxCacheDefaultBytes, uint64_t(4096)})
    for (uint64_t Intern : {uint64_t(0), InternDefaultBytes}) {
      std::optional<PsiExactResult> First;
      for (unsigned Threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("txcache=" + std::to_string(Cap) + " intern=" +
                     std::to_string(Intern) +
                     " threads=" + std::to_string(Threads));
        PsiExactResult R = runWith(Cap, Intern, Threads);
        EXPECT_TRUE(Base.QueryMass == R.QueryMass);
        EXPECT_TRUE(Base.OkMass == R.OkMass);
        EXPECT_TRUE(Base.ErrorMass == R.ErrorMass);
        EXPECT_EQ(Base.BranchesExpanded, R.BranchesExpanded);
        EXPECT_EQ(Base.MergeAttempts, R.MergeAttempts);
        EXPECT_EQ(Base.MergeHits, R.MergeHits);
        EXPECT_EQ(Base.BranchesParked, R.BranchesParked);
        EXPECT_EQ(Base.MaxDistSize, R.MaxDistSize);
        if (!First) {
          First = R;
          continue;
        }
        EXPECT_EQ(R.TxHits, First->TxHits);
        EXPECT_EQ(R.TxMisses, First->TxMisses);
        EXPECT_EQ(R.TxEvictions, First->TxEvictions);
        EXPECT_EQ(R.TxBytes, First->TxBytes);
      }
    }
}

// The interning arena must be invisible in the answer: intern off, intern
// on, and a tiny byte cap that forces constant eviction all produce
// bit-identical masses, expansion statistics, DiagReports, and metric
// fingerprints at --threads 1/2/8, and within each arena setting the
// intern counters themselves are thread-count-invariant (canon() only
// ever reads step-boundary publications).
TEST_P(FuzzDiffTest, InternInvariance) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  // Deterministic engine metrics with the bayonet_intern_* family
  // projected out: the arena settings legitimately differ in their own
  // counters (off keeps them at zero; a tiny cap evicts constantly) while
  // every other metric must not move.
  auto metricFp = [](const ObsContext &Ctx) {
    std::string Out;
    for (const MetricValue &V : Ctx.metrics()->snapshot()) {
      if (V.Name == "bayonet_step_duration_ms" ||
          V.Name.rfind("bayonet_intern_", 0) == 0)
        continue; // Duration- or arena-setting-dependent by design.
      Out += V.Name + "=" + std::to_string(V.Value);
      for (uint64_t B : V.BucketCounts)
        Out += "," + std::to_string(B);
      Out += ";";
    }
    return Out;
  };

  struct RunOut {
    ExactResult R;
    std::string Diag;
    std::string Metrics;
  };
  auto runWith = [&](uint64_t InternBytes, unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(/*Trace=*/false,
                                            /*Metrics=*/true, /*Diag=*/true);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.InternBytes = InternBytes;
    Opts.Obs = Ctx;
    RunOut Out{ExactEngine(Net->Spec, Opts).run(), std::string(),
               std::string()};
    Out.Diag = Ctx->diag()->report().toJson();
    Out.Metrics = metricFp(*Ctx);
    return Out;
  };

  RunOut Base = runWith(0, 1);
  ASSERT_FALSE(Base.R.QueryUnsupported) << Base.R.UnsupportedReason;
  EXPECT_EQ(Base.R.InternHits + Base.R.InternMisses, 0u);
  for (uint64_t Cap : {uint64_t(0), InternDefaultBytes, uint64_t(4096)}) {
    std::optional<ExactResult> First;
    for (unsigned Threads : {1u, 2u, 8u}) {
      RunOut Out = runWith(Cap, Threads);
      EXPECT_TRUE(Base.R.QueryMass == Out.R.QueryMass)
          << "intern=" << Cap << " threads=" << Threads;
      EXPECT_TRUE(Base.R.OkMass == Out.R.OkMass);
      EXPECT_TRUE(Base.R.ErrorMass == Out.R.ErrorMass);
      EXPECT_EQ(Base.R.ConfigsExpanded, Out.R.ConfigsExpanded);
      EXPECT_EQ(Base.R.MergeHits, Out.R.MergeHits);
      EXPECT_EQ(Base.R.MergeAttempts, Out.R.MergeAttempts);
      EXPECT_EQ(Base.Diag, Out.Diag)
          << "intern=" << Cap << " threads=" << Threads;
      EXPECT_EQ(Base.Metrics, Out.Metrics)
          << "intern=" << Cap << " threads=" << Threads;
      if (!First) {
        First = Out.R;
      } else {
        EXPECT_EQ(Out.R.InternHits, First->InternHits)
            << "intern=" << Cap << " threads=" << Threads;
        EXPECT_EQ(Out.R.InternMisses, First->InternMisses)
            << "intern=" << Cap << " threads=" << Threads;
        EXPECT_EQ(Out.R.InternEvictions, First->InternEvictions)
            << "intern=" << Cap << " threads=" << Threads;
        EXPECT_EQ(Out.R.InternBytes, First->InternBytes)
            << "intern=" << Cap << " threads=" << Threads;
      }
    }
  }
}

// Profiler count columns obey the determinism contract on arbitrary
// generated networks too: the canonical rendering is byte-identical with
// the sharded path forced at 1 vs 4 lanes (within each TxCache setting),
// the work columns are additionally identical across TxCache on/off, the
// per-frame states sum to the engine's expansion total, and profiling
// never perturbs the posterior.
TEST_P(FuzzDiffTest, ProfileCountInvariance) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  ExactResult Plain = ExactEngine(Net->Spec).run();
  ASSERT_FALSE(Plain.QueryUnsupported) << Plain.UnsupportedReason;

  // stack|states|execs|samples|merge_attempts|merge_hits|tx_hits|
  // tx_misses|intern_hits|intern_misses — the work projection drops the
  // tx and intern pairs (cache hits skip canonicalization, so intern
  // counts depend on the cache setting too).
  auto workOf = [](const std::string &Canon) {
    std::string Out;
    size_t Pos = 0;
    while (Pos < Canon.size()) {
      size_t End = Canon.find('\n', Pos);
      std::string Line = Canon.substr(Pos, End - Pos);
      Pos = End + 1;
      size_t Cut = Line.size();
      for (int Drop = 0; Drop < 4; ++Drop)
        Cut = Line.rfind('|', Cut - 1);
      Line.resize(Cut);
      bool AllZero = true;
      for (size_t I = Line.find('|'); I < Line.size(); ++I)
        if (Line[I] != '|' && Line[I] != '0')
          AllZero = false;
      if (!AllZero)
        Out += Line + "\n";
    }
    return Out;
  };
  auto statesSum = [](const std::string &Canon) {
    uint64_t Sum = 0;
    size_t Pos = 0;
    while (Pos < Canon.size()) {
      size_t Bar = Canon.find('|', Pos);
      Sum += std::stoull(Canon.substr(Bar + 1));
      Pos = Canon.find('\n', Pos) + 1;
    }
    return Sum;
  };

  auto canonOf = [&](unsigned Threads, uint64_t TxBytes) {
    auto Ctx = std::make_shared<ObsContext>(/*Trace=*/false,
                                            /*Metrics=*/false,
                                            /*Diag=*/false,
                                            /*Profile=*/true);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.TxCacheBytes = TxBytes;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net->Spec, Opts).run();
    EXPECT_TRUE(Plain.QueryMass == R.QueryMass)
        << "profiling perturbed the posterior";
    EXPECT_EQ(Plain.ConfigsExpanded, R.ConfigsExpanded);
    EXPECT_EQ(Plain.MergeHits, R.MergeHits);
    return Ctx->profiler()->renderCanonicalCounts();
  };

  std::string Off = canonOf(1, 0);
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(canonOf(4, 0), Off);
  EXPECT_EQ(statesSum(Off), Plain.ConfigsExpanded);

  std::string On = canonOf(1, TxCacheDefaultBytes);
  EXPECT_EQ(canonOf(4, TxCacheDefaultBytes), On);
  EXPECT_EQ(workOf(On), workOf(Off))
      << "work columns must not depend on the TxCache setting";
}

// Small-path/big-path differential mode: re-accumulate the terminal mass
// of a full exact run (whose weight merging rode the small-int64 Rational
// fast paths) with definitionally pure BigInt arithmetic — cross-multiply
// sums reduced by BigInt::gcd, no Rational operators anywhere — and
// require the canonical numerator/denominator bytes to match exactly.
TEST_P(FuzzDiffTest, SmallBigWeightIdentity) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  ExactOptions Opts;
  Opts.CollectTerminals = true;
  ExactResult R = ExactEngine(Net->Spec, Opts).run();
  ASSERT_TRUE(R.OkMass.isConcrete() || R.OkMass.isZero());

  struct RefQ {
    BigInt N{0}, D{1};
  };
  auto refAdd = [](const RefQ &A, const RefQ &B) {
    RefQ S{A.N * B.D + B.N * A.D, A.D * B.D};
    if (S.N.isZero())
      return RefQ{BigInt(0), BigInt(1)};
    BigInt G = BigInt::gcd(S.N, S.D);
    return RefQ{S.N / G, S.D / G};
  };
  RefQ Sum;
  for (const auto &[C, W] : R.Terminals) {
    ASSERT_TRUE(W.isConcrete() || W.isZero());
    Rational V = W.concreteValue();
    Sum = refAdd(Sum, RefQ{V.num(), V.den()});
  }
  Rational Ok = R.OkMass.concreteValue();
  EXPECT_EQ(Ok.num().toString(), Sum.N.toString());
  EXPECT_EQ(Ok.den().toString(), Sum.D.toString());
}

// Snapshot round-trip invariance: serialize → deserialize → re-serialize
// must be byte-stable on the real state an engine checkpoints — terminal
// NetConfig distributions with their copy-on-write block sharing, exact
// SymProb weights, and PRNG streams. Byte stability is what makes a
// resumed run's own snapshots identical to the uninterrupted run's.
TEST_P(FuzzDiffTest, SnapshotRoundTrip) {
  NetworkGen Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  DiagEngine Diags;
  auto Net = loadNetwork(Source, Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  ExactOptions Opts;
  Opts.CollectTerminals = true;
  ExactResult R = ExactEngine(Net->Spec, Opts).run();

  Xoshiro Rng(GetParam());
  auto serialize = [&](const std::vector<std::pair<NetConfig, SymProb>> &Dist,
                       const Xoshiro &G) {
    SnapWriter W;
    BlockTable T;
    W.u64(Dist.size());
    for (const auto &[C, P] : Dist) {
      snapNetConfig(W, T, C);
      snapSymProb(W, P);
    }
    snapRng(W, G);
    return W.buffer();
  };

  std::string First = serialize(R.Terminals, Rng);

  SnapReader Reader(First);
  BlockReadTable RT;
  std::vector<std::pair<NetConfig, SymProb>> Restored;
  uint64_t N = Reader.u64();
  for (uint64_t I = 0; I < N; ++I) {
    NetConfig C;
    SymProb P;
    ASSERT_TRUE(readNetConfig(Reader, RT, C));
    ASSERT_TRUE(readSymProb(Reader, P));
    Restored.emplace_back(std::move(C), std::move(P));
  }
  Xoshiro Rng2(0);
  ASSERT_TRUE(readRng(Reader, Rng2));
  EXPECT_TRUE(Reader.atEnd());

  EXPECT_EQ(First, serialize(Restored, Rng2));

  // And the restored distribution is semantically the one serialized.
  ASSERT_EQ(Restored.size(), R.Terminals.size());
  for (size_t I = 0; I < Restored.size(); ++I) {
    EXPECT_TRUE(Restored[I].first == R.Terminals[I].first);
    EXPECT_TRUE(Restored[I].second == R.Terminals[I].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiffTest,
                         ::testing::Range<uint64_t>(0, 30));

} // namespace
