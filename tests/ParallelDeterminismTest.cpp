//===- tests/ParallelDeterminismTest.cpp - Parallel determinism -----------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel inference engines promise bit-identical results for every
/// thread count: exact weights are order-independent rationals, sampler
/// particles own split PRNG streams assigned in particle order. These tests
/// pin that promise on the Table 1 scenarios, forcing the parallel code
/// path with ParallelThreshold = 1 and oversubscribed lane counts (the
/// shard structure, not the physical core count, is what must not leak
/// into results).
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "obs/Profile.h"
#include "psi/PsiExact.h"
#include "scenarios/Scenarios.h"
#include "support/Snapshot.h"
#include "support/ThreadPool.h"
#include "translate/Translator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <unistd.h>

using namespace bayonet;

namespace {

Rational q(int64_t N, int64_t D = 1) { return Rational(BigInt(N), BigInt(D)); }

ExactResult exactWithThreads(const LoadedNetwork &Net, unsigned Threads) {
  ExactOptions Opts;
  Opts.Threads = Threads;
  Opts.ParallelThreshold = 1; // Force the sharded path for Threads > 1.
  ExactResult R = ExactEngine(Net.Spec, Opts).run();
  EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  return R;
}

/// Renders the full result state that must not depend on the thread count.
std::string fingerprint(const ExactResult &R, const ParamTable &Params) {
  return R.QueryMass.toString(Params) + "|" + R.OkMass.toString(Params) +
         "|" + R.ErrorMass.toString(Params);
}

TEST(ParallelDeterminism, ExactTableOneScenariosBitIdentical) {
  struct Case {
    const char *Name;
    std::string Src;
    const char *PinnedValue; // nullptr: only cross-thread equality.
  };
  const Case Cases[] = {
      {"paperExample", scenarios::paperExample(),
       "30378810105265/67706637778944"},
      {"congestion1", scenarios::congestionChain(1, "uniform"), nullptr},
      {"reliability3", scenarios::reliabilityChain(3), nullptr},
      {"gossip4", scenarios::gossip(4), "94/27"},
  };
  for (const Case &C : Cases) {
    DiagEngine Diags;
    auto Net = loadNetwork(C.Src, Diags);
    ASSERT_TRUE(Net.has_value()) << C.Name << ": " << Diags.toString();
    ExactResult Base = exactWithThreads(*Net, 1);
    ASSERT_TRUE(Base.concreteValue().has_value()) << C.Name;
    if (C.PinnedValue) {
      EXPECT_EQ(Base.concreteValue()->toString(), C.PinnedValue) << C.Name;
    }
    std::string BaseFp = fingerprint(Base, Net->Spec.Params);
    for (unsigned Threads : {2u, 8u}) {
      ExactResult R = exactWithThreads(*Net, Threads);
      EXPECT_EQ(fingerprint(R, Net->Spec.Params), BaseFp)
          << C.Name << " with " << Threads << " threads";
      ASSERT_TRUE(R.concreteValue().has_value());
      EXPECT_EQ(*R.concreteValue(), *Base.concreteValue())
          << C.Name << " with " << Threads << " threads";
      // Expansion and merge totals are sharding-invariant too.
      EXPECT_EQ(R.ConfigsExpanded, Base.ConfigsExpanded) << C.Name;
      EXPECT_EQ(R.MergeHits, Base.MergeHits) << C.Name;
    }
  }
}

TEST(ParallelDeterminism, ExactWorkerCountersCoverAllExpansions) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::paperExample(), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  ExactResult R = exactWithThreads(*Net, 8);
  // With ParallelThreshold = 1 every step fans out, so the per-lane
  // counters account for every expanded configuration.
  ASSERT_EQ(R.WorkerConfigsExpanded.size(), 8u);
  size_t Sum = 0;
  for (size_t N : R.WorkerConfigsExpanded)
    Sum += N;
  EXPECT_EQ(Sum, R.ConfigsExpanded);
  EXPECT_GT(R.MergeHits, 0u); // The paper example merges configurations.
}

TEST(ParallelDeterminism, PsiExactTranslatedBitIdentical) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::paperExample(), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  auto Psi = translateToPsi(Net->Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();

  auto runWith = [&](unsigned Threads) {
    PsiExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    PsiExactResult R = PsiExact(*Psi, Opts).run();
    EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
    return R;
  };
  PsiExactResult Base = runWith(1);
  ASSERT_TRUE(Base.concreteValue().has_value());
  EXPECT_EQ(Base.concreteValue()->toString(), "30378810105265/67706637778944");
  for (unsigned Threads : {2u, 8u}) {
    PsiExactResult R = runWith(Threads);
    ASSERT_TRUE(R.concreteValue().has_value()) << Threads;
    EXPECT_EQ(*R.concreteValue(), *Base.concreteValue()) << Threads;
    EXPECT_EQ(R.OkMass.toString(Net->Spec.Params),
              Base.OkMass.toString(Net->Spec.Params));
    EXPECT_EQ(R.ErrorMass.toString(Net->Spec.Params),
              Base.ErrorMass.toString(Net->Spec.Params));
    EXPECT_EQ(R.BranchesExpanded, Base.BranchesExpanded);
    EXPECT_EQ(R.MergeHits, Base.MergeHits);
  }
}

// A loop nested inside a branch runs at distribution level on that one
// branch, inside the lane that runs the branch: its merges and counts stay
// lane-local, so a sharded pass over such branches is bit-identical too.
TEST(ParallelDeterminism, PsiExactNestedLoopsBitIdentical) {
  // repeat 3 { k = 0; while (k < 2 && flip(1/2)) { k = k + 1; } x = x + k; }
  // if (x > 2) { repeat 2 { y = y + flip(1/2); } }
  // k is 0, 1, 2 with probability 1/2, 1/4, 1/4, so E[x] = 9/4; x > 2 has
  // probability 13/32, so E[x + y] = 9/4 + 13/32 = 85/32.
  PsiProgram P;
  unsigned X = P.addVar("x");
  unsigned Y = P.addVar("y");
  unsigned K = P.addVar("k");
  std::vector<PStmtPtr> Inc, Step, Tail, Late;
  Inc.push_back(sAssign(K, pBin(BinOpKind::Add, pVar(K), pInt(1))));
  Step.push_back(sAssign(K, pInt(0)));
  Step.push_back(sWhile(pBin(BinOpKind::And,
                             pBin(BinOpKind::Lt, pVar(K), pInt(2)),
                             pFlip(pConst(q(1, 2)))),
                        std::move(Inc)));
  Step.push_back(sAssign(X, pBin(BinOpKind::Add, pVar(X), pVar(K))));
  Late.push_back(
      sAssign(Y, pBin(BinOpKind::Add, pVar(Y), pFlip(pConst(q(1, 2))))));
  Tail.push_back(sRepeat(2, std::move(Late)));
  P.Body.push_back(sAssign(X, pInt(0)));
  P.Body.push_back(sAssign(Y, pInt(0)));
  P.Body.push_back(sRepeat(3, std::move(Step)));
  P.Body.push_back(
      sIf(pBin(BinOpKind::Gt, pVar(X), pInt(2)), std::move(Tail)));
  P.Result = pBin(BinOpKind::Add, pVar(X), pVar(Y));
  P.Kind = QueryKind::Expectation;

  auto runWith = [&](unsigned Threads) {
    PsiExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    return PsiExact(P, Opts).run();
  };
  PsiExactResult Base = runWith(1);
  ASSERT_TRUE(Base.concreteValue().has_value());
  EXPECT_EQ(*Base.concreteValue(), q(85, 32));
  EXPECT_EQ(Base.OkMass.concreteValue(), q(1));
  for (unsigned Threads : {2u, 8u}) {
    PsiExactResult R = runWith(Threads);
    EXPECT_TRUE(R.QueryMass == Base.QueryMass) << Threads;
    EXPECT_TRUE(R.OkMass == Base.OkMass) << Threads;
    EXPECT_TRUE(R.ErrorMass == Base.ErrorMass) << Threads;
    EXPECT_EQ(R.BranchesExpanded, Base.BranchesExpanded) << Threads;
    EXPECT_EQ(R.MergeAttempts, Base.MergeAttempts) << Threads;
    EXPECT_EQ(R.MergeHits, Base.MergeHits) << Threads;
  }
}

TEST(ParallelDeterminism, SamplerSeededRunsIdenticalAcrossThreadCounts) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::reliabilityChain(2), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  auto runWith = [&](unsigned Threads, uint64_t Seed) {
    SampleOptions Opts;
    Opts.Particles = 300;
    Opts.Seed = Seed;
    Opts.Threads = Threads;
    return Sampler(Net->Spec, Opts).run();
  };
  SampleResult Base = runWith(1, 42);
  for (unsigned Threads : {2u, 8u}) {
    SampleResult R = runWith(Threads, 42);
    EXPECT_EQ(R.Value, Base.Value) << Threads;
    EXPECT_EQ(R.StdError, Base.StdError) << Threads;
    EXPECT_EQ(R.Survivors, Base.Survivors) << Threads;
    EXPECT_EQ(R.ErrorFraction, Base.ErrorFraction) << Threads;
  }
  // Same seed reproduces; a different seed draws different streams.
  SampleResult Again = runWith(1, 42);
  EXPECT_EQ(Again.Value, Base.Value);
  EXPECT_EQ(Again.StdError, Base.StdError);
}

// The diagnostics report rides the same serial checkpoints as the engine
// results, so the rendered JSON — per-step ESS and frontier series,
// summary, warnings — must be bit-identical at every thread count for
// every engine family, with the sharded paths forced.
TEST(ParallelDeterminism, DiagReportBitIdenticalAcrossThreadCounts) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::paperExample(), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  auto Psi = translateToPsi(Net->Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();

  auto exactDiag = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, false, true);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net->Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx->diag()->report().toJson();
  };
  auto psiDiag = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, false, true);
    PsiExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.Obs = Ctx;
    PsiExactResult R = PsiExact(*Psi, Opts).run();
    EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
    return Ctx->diag()->report().toJson();
  };
  auto samplerDiag = [&](unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, false, true);
    SampleOptions Opts;
    Opts.Particles = 400;
    Opts.Seed = 42;
    Opts.Threads = Threads;
    Opts.Obs = Ctx;
    SampleResult R = Sampler(Net->Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx->diag()->report().toJson();
  };
  const std::string Exact1 = exactDiag(1), Psi1 = psiDiag(1),
                    Smc1 = samplerDiag(1);
  EXPECT_FALSE(Exact1.empty());
  for (unsigned Threads : {2u, 8u}) {
    EXPECT_EQ(exactDiag(Threads), Exact1) << Threads;
    EXPECT_EQ(psiDiag(Threads), Psi1) << Threads;
    EXPECT_EQ(samplerDiag(Threads), Smc1) << Threads;
  }
}

// The full --txcache {on, off} x --threads {1, 2, 8} matrix: the
// posterior and every mass is bit-identical in all six combinations, and
// within each cache mode the transition-cache counters themselves are
// thread-count-invariant (lookups only ever see step-boundary snapshots).
TEST(ParallelDeterminism, TxCacheMatrixBitIdentical) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::gossip(4), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  auto run = [&](uint64_t CacheBytes, unsigned Threads) {
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.TxCacheBytes = CacheBytes;
    ExactResult R = ExactEngine(Net->Spec, Opts).run();
    EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
    return R;
  };

  ExactResult Base = run(0, 1);
  ASSERT_TRUE(Base.concreteValue().has_value());
  EXPECT_EQ(Base.concreteValue()->toString(), "94/27");
  std::string BaseFp = fingerprint(Base, Net->Spec.Params);

  std::optional<ExactResult> CachedBase;
  for (uint64_t CacheBytes : {uint64_t(0), TxCacheDefaultBytes}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      ExactResult R = run(CacheBytes, Threads);
      EXPECT_EQ(fingerprint(R, Net->Spec.Params), BaseFp)
          << "txcache=" << CacheBytes << " threads=" << Threads;
      EXPECT_EQ(R.ConfigsExpanded, Base.ConfigsExpanded);
      EXPECT_EQ(R.MergeHits, Base.MergeHits);
      EXPECT_EQ(R.MergeAttempts, Base.MergeAttempts);
      if (!CacheBytes) {
        // Cache off: the counters stay untouched.
        EXPECT_EQ(R.TxHits, 0u);
        EXPECT_EQ(R.TxMisses, 0u);
      } else if (!CachedBase) {
        CachedBase = R;
        EXPECT_GT(R.TxHits, 0u); // gossip4 re-runs node states heavily.
        EXPECT_GT(R.TxMisses, 0u);
      } else {
        EXPECT_EQ(R.TxHits, CachedBase->TxHits) << Threads;
        EXPECT_EQ(R.TxMisses, CachedBase->TxMisses) << Threads;
        EXPECT_EQ(R.TxEvictions, CachedBase->TxEvictions) << Threads;
        EXPECT_EQ(R.TxBytes, CachedBase->TxBytes) << Threads;
      }
    }
  }
}

// DiagReport bytes across the same matrix: identical across thread counts
// within each cache mode (the tx_* diag series is part of the report, so
// the two modes legitimately differ from each other in those fields).
TEST(ParallelDeterminism, TxCacheDiagReportBitIdenticalAcrossThreads) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::paperExample(), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  auto diagOf = [&](uint64_t CacheBytes, unsigned Threads) {
    auto Ctx = std::make_shared<ObsContext>(false, false, true);
    ExactOptions Opts;
    Opts.Threads = Threads;
    Opts.ParallelThreshold = 1;
    Opts.TxCacheBytes = CacheBytes;
    Opts.Obs = Ctx;
    ExactResult R = ExactEngine(Net->Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok());
    return Ctx->diag()->report().toJson();
  };

  for (uint64_t CacheBytes : {uint64_t(0), TxCacheDefaultBytes}) {
    const std::string One = diagOf(CacheBytes, 1);
    EXPECT_FALSE(One.empty());
    for (unsigned Threads : {2u, 8u})
      EXPECT_EQ(diagOf(CacheBytes, Threads), One)
          << "txcache=" << CacheBytes << " threads=" << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Profiler count determinism: threads x txcache x crash/resume
//===----------------------------------------------------------------------===//

std::shared_ptr<ObsContext> profObs() {
  return std::make_shared<ObsContext>(/*Trace=*/false, /*Metrics=*/false,
                                      /*Diag=*/false, /*Profile=*/true);
}

std::string profSnapPath() {
  static int Counter = 0;
  return ::testing::TempDir() + "bayonet_prof_" + std::to_string(::getpid()) +
         "_" + std::to_string(Counter++) + ".snap";
}

std::shared_ptr<Checkpointer> profCp(const std::string &Out,
                                     const std::string &Resume = "",
                                     const std::string &Fault = "") {
  CheckpointOptions CO;
  CO.OutPath = Out;
  CO.ResumePath = Resume;
  CO.Fault = Fault;
  CO.Every = 1;
  return std::make_shared<Checkpointer>(CO);
}

/// Projects a canonical-counts rendering onto its work columns (states,
/// execs, samples, merge attempts/hits), dropping rows that are all zero
/// there. The work projection is the tier of the fingerprint that is
/// additionally invariant across TxCache and intern on/off: cache hits
/// replay the per-statement counts recorded at compute time, and the
/// tx/intern columns only exist when the cache/arena does (cache hits
/// also skip canonicalization, so intern counts depend on the cache
/// setting — both pairs are dropped).
std::string workColumns(const std::string &Canon) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Canon.size()) {
    size_t End = Canon.find('\n', Pos);
    if (End == std::string::npos)
      End = Canon.size();
    std::string Line = Canon.substr(Pos, End - Pos);
    Pos = End + 1;
    // stack|states|execs|samples|merge_attempts|merge_hits|tx_hits|
    // tx_misses|intern_hits|intern_misses
    size_t Cut = Line.size();
    for (int Drop = 0; Drop < 4 && Cut != std::string::npos; ++Drop)
      Cut = Line.rfind('|', Cut - 1);
    size_t Bar = Line.find('|');
    EXPECT_NE(Cut, std::string::npos) << Line;
    EXPECT_NE(Bar, std::string::npos) << Line;
    if (Cut == std::string::npos || Bar == std::string::npos || Bar >= Cut)
      continue;
    std::string Kept = Line.substr(0, Cut);
    bool AllZero = true;
    for (size_t I = Bar; I < Kept.size(); ++I)
      if (Kept[I] != '|' && Kept[I] != '0')
        AllZero = false;
    if (!AllZero)
      Out += Kept + "\n";
  }
  return Out;
}

/// True when any row of \p Canon has a nonzero tx_hits or tx_misses
/// column (the antepenultimate pair — intern_hits|intern_misses follow).
bool anyTxColumn(const std::string &Canon) {
  size_t Pos = 0;
  while (Pos < Canon.size()) {
    size_t End = Canon.find('\n', Pos);
    if (End == std::string::npos)
      End = Canon.size();
    std::string Line = Canon.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Tail = Line.size();
    for (int Drop = 0; Drop < 2 && Tail != std::string::npos; ++Drop)
      Tail = Line.rfind('|', Tail - 1);
    if (Tail == std::string::npos)
      continue;
    size_t Cut = Tail;
    for (int Drop = 0; Drop < 2 && Cut != std::string::npos; ++Drop)
      Cut = Line.rfind('|', Cut - 1);
    if (Cut == std::string::npos)
      continue;
    for (size_t I = Cut; I < Tail; ++I)
      if (Line[I] != '|' && Line[I] != '0')
        return true;
  }
  return false;
}

/// One exact-engine cell of the matrix: forced sharded path, profiling
/// context, optional checkpointer. Returns the canonical count rendering.
std::string exactProfileCanon(const LoadedNetwork &Net, unsigned Threads,
                              uint64_t TxCacheBytes,
                              std::shared_ptr<Checkpointer> Cp,
                              bool ExpectOk) {
  auto Ctx = profObs();
  ExactOptions Opts;
  Opts.Threads = Threads;
  Opts.ParallelThreshold = 1;
  Opts.TxCacheBytes = TxCacheBytes;
  Opts.Obs = Ctx;
  Opts.Checkpoint = std::move(Cp);
  ExactResult R = ExactEngine(Net.Spec, Opts).run();
  if (ExpectOk) {
    EXPECT_TRUE(R.Status.ok()) << R.Status.toString();
    EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  } else {
    EXPECT_FALSE(R.Status.ok()) << "fault injection must abort the run";
  }
  return Ctx->profiler()->renderCanonicalCounts();
}

/// One translated-pipeline cell: PsiExact with the sharded path forced and
/// a profiling context. Returns the canonical count rendering.
std::string psiProfileCanon(const PsiProgram &Psi, unsigned Threads,
                            std::shared_ptr<Checkpointer> Cp, bool ExpectOk) {
  auto Ctx = profObs();
  PsiExactOptions Opts;
  Opts.Threads = Threads;
  Opts.ParallelThreshold = 1;
  Opts.Obs = Ctx;
  Opts.Checkpoint = std::move(Cp);
  PsiExactResult R = PsiExact(Psi, Opts).run();
  if (ExpectOk) {
    EXPECT_TRUE(R.Status.ok()) << R.Status.toString();
    EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  } else {
    EXPECT_FALSE(R.Status.ok()) << "fault injection must abort the run";
  }
  return Ctx->profiler()->renderCanonicalCounts();
}

// The tentpole acceptance matrix: the profiler's deterministic count
// columns are byte-identical across worker-thread counts and across a
// checkpoint crash/resume within each TxCache setting, and the work
// columns are additionally byte-identical across TxCache on/off. The
// translated pipeline, which has no transition cache, runs the threads x
// crash/resume part of the matrix.
TEST(ParallelDeterminism, ProfileCountMatrixThreadsTxCacheCrashResume) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::paperExample(), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  std::string WorkRef;
  for (uint64_t Tx : {uint64_t(0), TxCacheDefaultBytes}) {
    std::string Ref;
    for (unsigned Threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("txcache=" + std::to_string(Tx) +
                   " threads=" + std::to_string(Threads));
      std::string Straight =
          exactProfileCanon(*Net, Threads, Tx, nullptr, /*ExpectOk=*/true);
      ASSERT_FALSE(Straight.empty());
      if (Ref.empty())
        Ref = Straight;
      else
        EXPECT_EQ(Straight, Ref);

      // Crash at the first snapshot write, resume from it: the restored
      // aggregate continues bit-identically to the uninterrupted run.
      std::string Path = profSnapPath();
      auto CrashCp = profCp(Path, "", "crash-at-checkpoint=1");
      exactProfileCanon(*Net, Threads, Tx, CrashCp, /*ExpectOk=*/false);
      EXPECT_TRUE(CrashCp->crashed());
      auto ResCp = profCp(Path, Path);
      std::string Resumed =
          exactProfileCanon(*Net, Threads, Tx, ResCp, /*ExpectOk=*/true);
      EXPECT_TRUE(ResCp->resumed());
      EXPECT_EQ(Resumed, Ref);
      std::remove(Path.c_str());
      std::remove((Path + ".prev").c_str());
    }
    EXPECT_NE(Ref.find("exact;step;expand|"), std::string::npos) << Ref;
    // Tx columns exist exactly when the cache does.
    EXPECT_EQ(anyTxColumn(Ref), Tx != 0) << Ref;
    std::string Work = workColumns(Ref);
    ASSERT_FALSE(Work.empty());
    if (WorkRef.empty())
      WorkRef = Work;
    else
      EXPECT_EQ(Work, WorkRef)
          << "work columns must not depend on the TxCache setting";
  }

  auto Psi = translateToPsi(Net->Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();
  std::string PsiRef;
  for (unsigned Threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("translated threads=" + std::to_string(Threads));
    std::string Straight =
        psiProfileCanon(*Psi, Threads, nullptr, /*ExpectOk=*/true);
    ASSERT_FALSE(Straight.empty());
    if (PsiRef.empty())
      PsiRef = Straight;
    else
      EXPECT_EQ(Straight, PsiRef);

    std::string Path = profSnapPath();
    auto CrashCp = profCp(Path, "", "crash-at-checkpoint=3");
    psiProfileCanon(*Psi, Threads, CrashCp, /*ExpectOk=*/false);
    EXPECT_TRUE(CrashCp->crashed());
    auto ResCp = profCp(Path, Path);
    std::string Resumed =
        psiProfileCanon(*Psi, Threads, ResCp, /*ExpectOk=*/true);
    EXPECT_TRUE(ResCp->resumed());
    EXPECT_EQ(Resumed, PsiRef);
    std::remove(Path.c_str());
    std::remove((Path + ".prev").c_str());
  }
  EXPECT_NE(PsiRef.find("psi;"), std::string::npos) << PsiRef;
}

/// One translated-pipeline cell with the arm cache at \p TxCacheBytes:
/// PsiExact on the sharded path with a profiling context. Returns the
/// result and the canonical count rendering.
std::pair<PsiExactResult, std::string>
psiCacheRun(const PsiProgram &Psi, unsigned Threads, uint64_t TxCacheBytes,
            std::shared_ptr<Checkpointer> Cp) {
  auto Ctx = profObs();
  PsiExactOptions Opts;
  Opts.Threads = Threads;
  Opts.ParallelThreshold = 1;
  Opts.TxCacheBytes = TxCacheBytes;
  Opts.Obs = Ctx;
  Opts.Checkpoint = std::move(Cp);
  PsiExactResult R = PsiExact(Psi, Opts).run();
  return {std::move(R), Ctx->profiler()->renderCanonicalCounts()};
}

// The translated leg of the matrix with its arm transition cache: off, on
// and at a tiny byte cap that keeps evicting, each at threads 1/2/8 and
// across a crash and a resume both before the scheduler loop (checkpoint
// 3) and after it, where the snapshot carries a full cache. Every run of
// a setting gives identical masses, branches, merges, parked branches,
// cache counters and canonical profile counts; the work columns and every
// count but the cache's agree across settings too.
TEST(ParallelDeterminism, PsiArmCacheMatrixThreadsCrashResume) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::paperExample(), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();
  auto Psi = translateToPsi(Net->Spec, Diags);
  ASSERT_TRUE(Psi.has_value()) << Diags.toString();
  // Checkpoint k is written as top-level statement k - 1 opens.
  size_t Loop = 0;
  while (Loop < Psi->Body.size() && Psi->Body[Loop]->Kind != PStmtKind::Repeat)
    ++Loop;
  ASSERT_LT(Loop + 1, Psi->Body.size());
  const std::string AfterLoop =
      "crash-at-checkpoint=" + std::to_string(Loop + 2);

  auto sameRun = [](const PsiExactResult &A, const PsiExactResult &B) {
    EXPECT_TRUE(A.QueryMass == B.QueryMass);
    EXPECT_TRUE(A.OkMass == B.OkMass);
    EXPECT_TRUE(A.ErrorMass == B.ErrorMass);
    EXPECT_EQ(A.BranchesExpanded, B.BranchesExpanded);
    EXPECT_EQ(A.MergeAttempts, B.MergeAttempts);
    EXPECT_EQ(A.MergeHits, B.MergeHits);
    EXPECT_EQ(A.BranchesParked, B.BranchesParked);
  };
  std::optional<PsiExactResult> Base;
  std::string WorkRef;
  for (uint64_t Tx : {uint64_t(0), TxCacheDefaultBytes, uint64_t(4096)}) {
    std::optional<std::pair<PsiExactResult, std::string>> Ref;
    for (unsigned Threads : {1u, 2u, 8u})
      for (const std::string Fault : {"", "crash-at-checkpoint=3",
                                      AfterLoop.c_str()}) {
        SCOPED_TRACE("txcache=" + std::to_string(Tx) + " threads=" +
                     std::to_string(Threads) + " fault=" + Fault);
        std::pair<PsiExactResult, std::string> Run;
        std::string Path = profSnapPath();
        if (Fault.empty()) {
          Run = psiCacheRun(*Psi, Threads, Tx, nullptr);
        } else {
          auto CrashCp = profCp(Path, "", Fault);
          EXPECT_FALSE(psiCacheRun(*Psi, Threads, Tx, CrashCp).first
                           .Status.ok());
          EXPECT_TRUE(CrashCp->crashed());
          auto ResCp = profCp(Path, Path);
          Run = psiCacheRun(*Psi, Threads, Tx, ResCp);
          EXPECT_TRUE(ResCp->resumed());
          std::remove(Path.c_str());
          std::remove((Path + ".prev").c_str());
        }
        const PsiExactResult &R = Run.first;
        ASSERT_TRUE(R.Status.ok()) << R.Status.toString();
        if (!Base)
          Base = R;
        sameRun(*Base, R);
        if (!Ref) {
          Ref = Run;
          continue;
        }
        EXPECT_EQ(Run.second, Ref->second);
        EXPECT_EQ(R.TxHits, Ref->first.TxHits);
        EXPECT_EQ(R.TxMisses, Ref->first.TxMisses);
        EXPECT_EQ(R.TxEvictions, Ref->first.TxEvictions);
        EXPECT_EQ(R.TxBytes, Ref->first.TxBytes);
      }
    const PsiExactResult &R = Ref->first;
    EXPECT_EQ(R.TxHits + R.TxMisses > 0, Tx != 0);
    EXPECT_EQ(R.TxEvictions > 0, Tx == 4096) << R.TxEvictions;
    EXPECT_EQ(anyTxColumn(Ref->second), Tx != 0) << Ref->second;
    std::string Work = workColumns(Ref->second);
    ASSERT_FALSE(Work.empty());
    if (WorkRef.empty())
      WorkRef = Work;
    else
      EXPECT_EQ(Work, WorkRef)
          << "work columns must not depend on the cache setting";
  }
}

// The seeded sampler charges PRNG draws and statement executions through
// per-lane shards with contiguous particle chunks; the folded counts are
// thread-count-invariant like every other deterministic column.
TEST(ParallelDeterminism, ProfileCountsSamplerThreadInvariant) {
  DiagEngine Diags;
  auto Net = loadNetwork(scenarios::reliabilityChain(2), Diags);
  ASSERT_TRUE(Net.has_value()) << Diags.toString();

  auto canonOf = [&](unsigned Threads) {
    auto Ctx = profObs();
    SampleOptions Opts;
    Opts.Particles = 300;
    Opts.Seed = 42;
    Opts.Threads = Threads;
    Opts.Obs = Ctx;
    SampleResult R = Sampler(Net->Spec, Opts).run();
    EXPECT_TRUE(R.Status.ok()) << R.Status.toString();
    return Ctx->profiler()->renderCanonicalCounts();
  };
  std::string Base = canonOf(1);
  ASSERT_FALSE(Base.empty());
  EXPECT_NE(Base.find("smc;"), std::string::npos) << Base;
  for (unsigned Threads : {2u, 8u})
    EXPECT_EQ(canonOf(Threads), Base) << Threads;
}

// Regression: a failed uniformInt operand must contribute exactly the
// operand combination's probability mass to the error state. The old code
// pushed the failed operand outcome once per outcome of the other operand
// (multiplying its mass) and dropped the other operand's probability.
TEST(ParallelDeterminism, UniformIntFailurePropagatesOperandMass) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  unsigned I = P.addVar("i");
  unsigned X = P.addVar("x");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(2));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems)))); // t = (2)
  P.Body.push_back(sAssign(I, pUniformInt(pInt(0), pInt(1))));
  // In the i == 1 branch t[i] is out of range, so the uniformInt's low
  // bound fails with probability 1 there; the high bound still splits into
  // two outcomes of 1/2 each. Correct error mass: 1/2 * (1/2 + 1/2) = 1/2.
  // The old accounting produced 1 (the Lo outcome pushed twice), making
  // total mass exceed 1.
  P.Body.push_back(sAssign(
      X, pUniformInt(pIndex(pVar(T), pVar(I)),
                     pUniformInt(pInt(3), pInt(4)))));
  P.Result = pInt(1);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 2));
  EXPECT_EQ(R.OkMass.concreteValue(), q(1, 2));
  EXPECT_EQ(*R.concreteValue(), q(1));
}

// Same accounting for failures detected inside uniformInt itself: an empty
// range reached with probability 1/2 contributes 1/2, not 1.
TEST(ParallelDeterminism, UniformIntEmptyRangeCarriesOperandProbability) {
  PsiProgram P;
  unsigned X = P.addVar("x");
  // hi ~ uniform{1..4}; the range [3, hi] is empty for hi in {1, 2}.
  P.Body.push_back(
      sAssign(X, pUniformInt(pInt(3), pUniformInt(pInt(1), pInt(4)))));
  P.Result = pInt(1);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 2));
  EXPECT_EQ(R.OkMass.concreteValue(), q(1, 2));
}

// Indexing has the same two failure paths; pin the out-of-range one.
TEST(ParallelDeterminism, TupleIndexFailureCarriesOperandProbability) {
  PsiProgram P;
  unsigned T = P.addVar("t");
  unsigned X = P.addVar("x");
  std::vector<PExprPtr> Elems;
  Elems.push_back(pInt(5));
  Elems.push_back(pInt(6));
  P.Body.push_back(sAssign(T, pTuple(std::move(Elems)))); // t = (5, 6)
  // idx ~ uniform{1..2}: idx == 2 is out of range with probability 1/2.
  P.Body.push_back(
      sAssign(X, pIndex(pVar(T), pUniformInt(pInt(1), pInt(2)))));
  P.Result = pInt(1);
  PsiExactResult R = PsiExact(P).run();
  EXPECT_FALSE(R.QueryUnsupported) << R.UnsupportedReason;
  EXPECT_EQ(R.ErrorMass.concreteValue(), q(1, 2));
  EXPECT_EQ(R.OkMass.concreteValue(), q(1, 2));
}

} // namespace
