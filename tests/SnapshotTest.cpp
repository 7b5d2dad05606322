//===- tests/SnapshotTest.cpp - Durable checkpoint/restore ----------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint/restore tests: a run killed at an injected crash point and
/// resumed from its last snapshot produces bit-identical posteriors,
/// diagnostics, metric fingerprints, and trace shape vs an uninterrupted
/// run — for every engine, at 1/2/8 worker threads, with the TxCache
/// on or off. Corrupt and truncated snapshots are rejected by the
/// container checksum/length checks and recovered from the previous good
/// snapshot; a requested resume that cannot be satisfied is a hard error,
/// never a silent fresh start.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "psi/PsiExact.h"
#include "support/Snapshot.h"
#include "translate/Translator.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <unistd.h>

using namespace bayonet;

namespace {

LoadedNetwork load(const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  return std::move(*Net);
}

PsiProgram translated(const LoadedNetwork &Net) {
  DiagEngine Diags;
  auto P = translateToPsi(Net.Spec, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.toString();
  return std::move(*P);
}

/// A unique snapshot path per call, under gtest's scratch directory.
std::string snapPath() {
  static int Counter = 0;
  return ::testing::TempDir() + "bayonet_snap_" + std::to_string(::getpid()) +
         "_" + std::to_string(Counter++) + ".snap";
}

std::shared_ptr<ObsContext> makeObs() {
  return std::make_shared<ObsContext>(/*Trace=*/true, /*Metrics=*/true,
                                      /*Diag=*/true);
}

std::shared_ptr<Checkpointer> makeCp(const std::string &Out,
                                     const std::string &Resume = "",
                                     const std::string &Fault = "",
                                     uint64_t Every = 1) {
  CheckpointOptions CO;
  CO.OutPath = Out;
  CO.ResumePath = Resume;
  CO.Fault = Fault;
  CO.Every = Every;
  return std::make_shared<Checkpointer>(CO);
}

/// Blanks the only nondeterministic trace fields (ts / dur, microseconds).
std::string stripTimestamps(std::string Json) {
  Json = std::regex_replace(Json, std::regex("\"ts\":[0-9]+"), "\"ts\":T");
  return std::regex_replace(Json, std::regex("\"dur\":[0-9]+"), "\"dur\":D");
}

/// Deterministic fingerprint of every metric except the wall-clock
/// histogram and the pool dispatch counters (batching is a scheduling
/// artifact, not a counted quantity of the inference).
std::string metricFingerprint(const ObsContext &Ctx) {
  std::string Out;
  for (const MetricValue &V : Ctx.metrics()->snapshot()) {
    if (V.Name == "bayonet_step_duration_ms" ||
        V.Name == "bayonet_pool_batches_total" ||
        V.Name == "bayonet_pool_tasks_total")
      continue;
    Out += V.Name + "=" + std::to_string(V.Value);
    for (uint64_t B : V.BucketCounts)
      Out += "," + std::to_string(B);
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), ";%.9g\n", V.Sum);
    Out += Buf;
  }
  return Out;
}

/// Everything the observability layer saw, rendered deterministically.
std::string obsFingerprint(const ObsContext &Ctx) {
  return stripTimestamps(Ctx.tracer()->renderChromeJson()) + "\n---\n" +
         metricFingerprint(Ctx) + "\n---\n" + Ctx.diag()->report().toJson();
}

/// Posterior fingerprints per engine (exact string renderings / bit
/// patterns, so equality means bit-identical).
std::string posterior(const ExactResult &R, const ParamTable &Params) {
  return R.QueryMass.toString(Params) + "|" + R.OkMass.toString(Params) +
         "|" + R.ErrorMass.toString(Params) + "|" +
         std::to_string(R.ConfigsExpanded) + "|" +
         std::to_string(R.MergeHits) + "|" + std::to_string(R.StepsUsed) +
         "|" + std::to_string(R.TerminalConfigs);
}

std::string posterior(const SampleResult &R) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%a|%a|%u|%u|%lld", R.Value, R.StdError,
                R.Survivors, R.Particles, (long long)R.StepsRun);
  return Buf;
}

std::string posterior(const PsiExactResult &R, const ParamTable &Params) {
  return R.QueryMass.toString(Params) + "|" + R.OkMass.toString(Params) +
         "|" + R.ErrorMass.toString(Params) + "|" +
         std::to_string(R.BranchesExpanded) + "|" +
         std::to_string(R.MergeHits);
}

/// Flips one byte at \p Offset (negative counts back from the end).
void corruptByte(const std::string &Path, long Offset) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.is_open()) << Path;
  std::ios_base::seekdir Dir = Offset < 0 ? std::ios::end : std::ios::beg;
  F.seekg(Offset, Dir);
  char C = 0;
  F.get(C);
  ASSERT_TRUE(F.good()) << Path << " offset " << Offset;
  F.seekp(Offset, Dir);
  F.put(static_cast<char>(C ^ 0x5a));
  ASSERT_TRUE(F.good()) << Path << " offset " << Offset;
}

void truncateFile(const std::string &Path, long Keep) {
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.is_open()) << Path;
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(All.size(), static_cast<size_t>(Keep));
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(All.data(), Keep);
}

} // namespace

//===----------------------------------------------------------------------===//
// Crash → resume determinism, every engine × threads 1/2/8
//===----------------------------------------------------------------------===//

// The acceptance matrix for the exact engine: a run soft-crashed at the
// K-th snapshot write and resumed from it must reproduce the uninterrupted
// run bit for bit — posteriors, per-round diagnostics, metric totals, and
// trace shape — at every worker-lane count. The baseline checkpoints too
// (to its own throwaway path): snapshot writes carry their own obs
// (snapshot.write spans, bayonet_checkpoint_* counters), so the resumed
// run's checkpoint obs must also replay bit-identically.
TEST(Snapshot, CrashResumeExactMatrix) {
  LoadedNetwork Net = load(testnets::PaperExample);
  for (unsigned Threads : {1u, 2u, 8u}) {
    auto BaseObs = makeObs();
    std::string BasePath = snapPath();
    ExactOptions Base;
    Base.Threads = Threads;
    Base.Obs = BaseObs;
    Base.Budget = std::make_shared<BudgetTracker>();
    Base.Checkpoint = makeCp(BasePath);
    ExactResult Straight = ExactEngine(Net.Spec, Base).run();
    ASSERT_TRUE(Straight.Status.ok()) << Straight.Status.toString();
    std::remove(BasePath.c_str());
    std::remove((BasePath + ".prev").c_str());

    for (uint64_t K : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(Threads) +
                   " K=" + std::to_string(K));
      std::string Path = snapPath();

      ExactOptions Crash;
      Crash.Threads = Threads;
      Crash.Obs = makeObs();
      Crash.Budget = std::make_shared<BudgetTracker>();
      Crash.Checkpoint =
          makeCp(Path, "", "crash-at-checkpoint=" + std::to_string(K));
      ExactResult Dead = ExactEngine(Net.Spec, Crash).run();
      EXPECT_FALSE(Dead.Status.ok());
      EXPECT_TRUE(Crash.Checkpoint->crashed());

      auto ResObs = makeObs();
      ExactOptions Res;
      Res.Threads = Threads;
      Res.Obs = ResObs;
      Res.Budget = std::make_shared<BudgetTracker>();
      Res.Checkpoint = makeCp(Path, Path);
      ExactResult Resumed = ExactEngine(Net.Spec, Res).run();
      ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();
      EXPECT_TRUE(Res.Checkpoint->resumed());

      EXPECT_EQ(posterior(Straight, Net.Spec.Params),
                posterior(Resumed, Net.Spec.Params));
      EXPECT_EQ(obsFingerprint(*BaseObs), obsFingerprint(*ResObs));
      EXPECT_EQ(Base.Budget->spendSnapshot().SchedSteps,
                Res.Budget->spendSnapshot().SchedSteps);
      std::remove(Path.c_str());
      std::remove((Path + ".prev").c_str());
    }
  }
}

// Same matrix with the transition cache disabled: the cache byte cap is
// part of the options fingerprint, and results must stay bit-identical
// with it off.
TEST(Snapshot, CrashResumeExactNoTxCache) {
  LoadedNetwork Net = load(testnets::PaperExample);
  auto BaseObs = makeObs();
  std::string BasePath = snapPath();
  ExactOptions Base;
  Base.TxCacheBytes = 0;
  Base.Obs = BaseObs;
  Base.Checkpoint = makeCp(BasePath);
  ExactResult Straight = ExactEngine(Net.Spec, Base).run();
  ASSERT_TRUE(Straight.Status.ok());
  std::remove(BasePath.c_str());
  std::remove((BasePath + ".prev").c_str());

  std::string Path = snapPath();
  ExactOptions Crash;
  Crash.TxCacheBytes = 0;
  Crash.Obs = makeObs();
  Crash.Checkpoint = makeCp(Path, "", "crash-at-checkpoint=3");
  ExactResult Dead = ExactEngine(Net.Spec, Crash).run();
  EXPECT_FALSE(Dead.Status.ok());

  auto ResObs = makeObs();
  ExactOptions Res;
  Res.TxCacheBytes = 0;
  Res.Obs = ResObs;
  Res.Checkpoint = makeCp(Path, Path);
  ExactResult Resumed = ExactEngine(Net.Spec, Res).run();
  ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();
  EXPECT_EQ(posterior(Straight, Net.Spec.Params),
            posterior(Resumed, Net.Spec.Params));
  EXPECT_EQ(obsFingerprint(*BaseObs), obsFingerprint(*ResObs));
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

TEST(Snapshot, CrashResumeSmcMatrix) {
  LoadedNetwork Net = load(testnets::PaperExample);
  for (unsigned Threads : {1u, 2u, 8u}) {
    SampleOptions Base;
    Base.Particles = 300;
    Base.Threads = Threads;
    auto BaseObs = makeObs();
    std::string BasePath = snapPath();
    Base.Obs = BaseObs;
    Base.Budget = std::make_shared<BudgetTracker>();
    Base.Checkpoint = makeCp(BasePath);
    SampleResult Straight = Sampler(Net.Spec, Base).run();
    ASSERT_TRUE(Straight.Status.ok()) << Straight.Status.toString();
    std::remove(BasePath.c_str());
    std::remove((BasePath + ".prev").c_str());

    for (uint64_t K : {1u, 5u}) {
      SCOPED_TRACE("threads=" + std::to_string(Threads) +
                   " K=" + std::to_string(K));
      std::string Path = snapPath();

      SampleOptions Crash = Base;
      Crash.Obs = makeObs();
      Crash.Budget = std::make_shared<BudgetTracker>();
      Crash.Checkpoint =
          makeCp(Path, "", "crash-at-checkpoint=" + std::to_string(K));
      SampleResult Dead = Sampler(Net.Spec, Crash).run();
      EXPECT_FALSE(Dead.Status.ok());

      SampleOptions Res = Base;
      auto ResObs = makeObs();
      Res.Obs = ResObs;
      Res.Budget = std::make_shared<BudgetTracker>();
      Res.Checkpoint = makeCp(Path, Path);
      SampleResult Resumed = Sampler(Net.Spec, Res).run();
      ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();

      EXPECT_EQ(posterior(Straight), posterior(Resumed));
      EXPECT_EQ(obsFingerprint(*BaseObs), obsFingerprint(*ResObs));
      std::remove(Path.c_str());
      std::remove((Path + ".prev").c_str());
    }
  }
}

TEST(Snapshot, CrashResumePsiExactMatrix) {
  LoadedNetwork Net = load(testnets::PaperExample);
  PsiProgram P = translated(Net);
  for (unsigned Threads : {1u, 2u, 8u}) {
    PsiExactOptions Base;
    Base.Threads = Threads;
    auto BaseObs = makeObs();
    std::string BasePath = snapPath();
    Base.Obs = BaseObs;
    Base.Budget = std::make_shared<BudgetTracker>();
    Base.Checkpoint = makeCp(BasePath);
    PsiExactResult Straight = PsiExact(P, Base).run();
    ASSERT_TRUE(Straight.Status.ok()) << Straight.Status.toString();
    std::remove(BasePath.c_str());
    std::remove((BasePath + ".prev").c_str());

    for (uint64_t K : {1u, 3u}) {
      SCOPED_TRACE("threads=" + std::to_string(Threads) +
                   " K=" + std::to_string(K));
      std::string Path = snapPath();

      PsiExactOptions Crash = Base;
      Crash.Obs = makeObs();
      Crash.Budget = std::make_shared<BudgetTracker>();
      Crash.Checkpoint =
          makeCp(Path, "", "crash-at-checkpoint=" + std::to_string(K));
      PsiExactResult Dead = PsiExact(P, Crash).run();
      EXPECT_FALSE(Dead.Status.ok());

      PsiExactOptions Res = Base;
      auto ResObs = makeObs();
      Res.Obs = ResObs;
      Res.Budget = std::make_shared<BudgetTracker>();
      Res.Checkpoint = makeCp(Path, Path);
      PsiExactResult Resumed = PsiExact(P, Res).run();
      ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();

      EXPECT_EQ(posterior(Straight, Net.Spec.Params),
                posterior(Resumed, Net.Spec.Params));
      EXPECT_EQ(obsFingerprint(*BaseObs), obsFingerprint(*ResObs));
      std::remove(Path.c_str());
      std::remove((Path + ".prev").c_str());
    }
  }
}

// Checkpoint writing must be a pure observer: a straight-through run with
// snapshots enabled answers exactly like one without.
TEST(Snapshot, WritingPerturbsNothing) {
  LoadedNetwork Net = load(testnets::PaperExample);
  ExactResult Plain = ExactEngine(Net.Spec).run();
  std::string Path = snapPath();
  ExactOptions Opts;
  Opts.Checkpoint = makeCp(Path);
  ExactResult Snapped = ExactEngine(Net.Spec, Opts).run();
  ASSERT_TRUE(Snapped.Status.ok());
  EXPECT_GT(Opts.Checkpoint->writesDone(), 0u);
  EXPECT_EQ(posterior(Plain, Net.Spec.Params),
            posterior(Snapped, Net.Spec.Params));
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

//===----------------------------------------------------------------------===//
// Corruption, truncation, fault injection, and refusal to guess
//===----------------------------------------------------------------------===//

namespace {

/// Writes a full run's snapshot stream to Path (Every=1, ≥2 writes so
/// PATH.prev exists) and returns the straight-run posterior.
std::string writeSnapshots(const LoadedNetwork &Net, const std::string &Path) {
  ExactOptions Opts;
  Opts.Checkpoint = makeCp(Path);
  ExactResult R = ExactEngine(Net.Spec, Opts).run();
  EXPECT_TRUE(R.Status.ok());
  EXPECT_GE(Opts.Checkpoint->writesDone(), 2u);
  return posterior(R, Net.Spec.Params);
}

ExactResult resumeFrom(const LoadedNetwork &Net, const std::string &Path,
                       std::shared_ptr<Checkpointer> *CpOut = nullptr) {
  ExactOptions Opts;
  Opts.Checkpoint = makeCp("", Path);
  if (CpOut)
    *CpOut = Opts.Checkpoint;
  return ExactEngine(Net.Spec, Opts).run();
}

} // namespace

// A flipped payload byte fails the checksum; the loader falls back to
// PATH.prev and the resumed run still completes with the right answer.
TEST(Snapshot, CorruptPayloadFallsBackToPrev) {
  LoadedNetwork Net = load(testnets::PaperExample);
  std::string Path = snapPath();
  std::string Want = writeSnapshots(Net, Path);

  corruptByte(Path, -9); // Inside the payload tail.
  std::shared_ptr<Checkpointer> Cp;
  ExactResult R = resumeFrom(Net, Path, &Cp);
  ASSERT_TRUE(R.Status.ok()) << R.Status.toString();
  EXPECT_TRUE(Cp->resumed());
  EXPECT_EQ(Want, posterior(R, Net.Spec.Params));
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

// A torn (truncated) primary fails the length check and falls back too.
TEST(Snapshot, TruncatedFileFallsBackToPrev) {
  LoadedNetwork Net = load(testnets::PaperExample);
  std::string Path = snapPath();
  std::string Want = writeSnapshots(Net, Path);

  truncateFile(Path, 40); // Header + a few payload bytes.
  std::shared_ptr<Checkpointer> Cp;
  ExactResult R = resumeFrom(Net, Path, &Cp);
  ASSERT_TRUE(R.Status.ok()) << R.Status.toString();
  EXPECT_TRUE(Cp->resumed());
  EXPECT_EQ(Want, posterior(R, Net.Spec.Params));
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

// Both generations bad: the resume is a hard Invalid error — the engine
// never silently falls back to a fresh run.
TEST(Snapshot, BothGenerationsCorruptIsHardError) {
  LoadedNetwork Net = load(testnets::PaperExample);
  std::string Path = snapPath();
  writeSnapshots(Net, Path);

  corruptByte(Path, -9);
  corruptByte(Path + ".prev", -9);
  std::shared_ptr<Checkpointer> Cp;
  ExactResult R = resumeFrom(Net, Path, &Cp);
  EXPECT_FALSE(R.Status.ok());
  EXPECT_TRUE(Cp->resumeFailed());
  EXPECT_NE(Cp->resumeError().find("checksum"), std::string::npos)
      << Cp->resumeError();
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

TEST(Snapshot, MissingResumeFileIsHardError) {
  LoadedNetwork Net = load(testnets::PaperExample);
  std::shared_ptr<Checkpointer> Cp;
  ExactResult R =
      resumeFrom(Net, ::testing::TempDir() + "nonexistent.snap", &Cp);
  EXPECT_FALSE(R.Status.ok());
  EXPECT_TRUE(Cp->resumeFailed());
}

// A snapshot from a different network (or different engine options) is
// rejected by the spec/options fingerprint, not loaded into the wrong run.
TEST(Snapshot, SpecAndOptionsFingerprintMismatchRejected) {
  LoadedNetwork Net = load(testnets::PaperExample);
  std::string Path = snapPath();
  writeSnapshots(Net, Path);

  LoadedNetwork Other = load(testnets::TinyCongestion);
  ExactResult Wrong = resumeFrom(Other, Path);
  EXPECT_FALSE(Wrong.Status.ok());

  // Same network, different options fingerprint (cache off vs on).
  ExactOptions NoCache;
  NoCache.TxCacheBytes = 0;
  NoCache.Checkpoint = makeCp("", Path);
  ExactResult R = ExactEngine(Net.Spec, NoCache).run();
  EXPECT_FALSE(R.Status.ok());

  // A sampling engine refuses an exact-engine snapshot outright.
  SampleOptions SO;
  SO.Checkpoint = makeCp("", Path);
  SampleResult S = Sampler(Net.Spec, SO).run();
  EXPECT_FALSE(S.Status.ok());
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

// The injected write faults themselves: a torn Kth write leaves the
// previous generation as the best snapshot, a corrupt-byte write is
// rejected by the checksum — resuming recovers in both cases.
TEST(Snapshot, InjectedTornAndCorruptWritesRecover) {
  LoadedNetwork Net = load(testnets::PaperExample);
  ExactResult Straight = ExactEngine(Net.Spec).run();
  for (const char *Fault : {"torn-write=4", "corrupt-byte=4"}) {
    SCOPED_TRACE(Fault);
    std::string Path = snapPath();
    ExactOptions Opts;
    Opts.Checkpoint = makeCp(Path, "", Fault);
    ExactResult R = ExactEngine(Net.Spec, Opts).run();
    ASSERT_TRUE(R.Status.ok()); // Write faults don't kill the writer.

    // The damaged generation is silently skipped on load; whichever good
    // snapshot the rotation kept must resume to the right answer.
    std::shared_ptr<Checkpointer> Cp;
    ExactResult Resumed = resumeFrom(Net, Path, &Cp);
    ASSERT_TRUE(Resumed.Status.ok()) << Cp->resumeError();
    EXPECT_EQ(posterior(Straight, Net.Spec.Params),
              posterior(Resumed, Net.Spec.Params));
    std::remove(Path.c_str());
    std::remove((Path + ".prev").c_str());
  }
}

// Graceful cancellation writes a final snapshot at the last completed
// boundary; resuming it finishes the run bit-identically.
TEST(Snapshot, CancelledRunWritesResumableFinal) {
  LoadedNetwork Net = load(testnets::PaperExample);
  ExactResult Straight = ExactEngine(Net.Spec).run();

  std::string Path = snapPath();
  CancelToken Cancel;
  Cancel.requestCancel(); // Cancelled before the first boundary.
  ExactOptions Opts;
  Opts.Budget = std::make_shared<BudgetTracker>(BudgetLimits{}, Cancel);
  Opts.Checkpoint = makeCp(Path, "", "", /*Every=*/1000000);
  ExactResult Dead = ExactEngine(Net.Spec, Opts).run();
  EXPECT_FALSE(Dead.Status.ok());
  ASSERT_GE(Opts.Checkpoint->writesDone(), 1u);

  std::shared_ptr<Checkpointer> Cp;
  ExactResult Resumed = resumeFrom(Net, Path, &Cp);
  ASSERT_TRUE(Resumed.Status.ok()) << Cp->resumeError();
  EXPECT_EQ(posterior(Straight, Net.Spec.Params),
            posterior(Resumed, Net.Spec.Params));
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

//===----------------------------------------------------------------------===//
// runInference integration
//===----------------------------------------------------------------------===//

TEST(Snapshot, RunInferenceThreadsCheckpointIntoPrimary) {
  LoadedNetwork Net = load(testnets::PaperExample);
  InferenceOptions Plain;
  InferenceResult Straight = runInference(Net, Plain);
  ASSERT_TRUE(Straight.Status.ok());

  std::string Path = snapPath();
  InferenceOptions Crash;
  Crash.Checkpoint = makeCp(Path, "", "crash-at-checkpoint=3");
  InferenceResult Dead = runInference(Net, Crash);
  EXPECT_FALSE(Dead.Status.ok());

  InferenceOptions Res;
  Res.Checkpoint = makeCp(Path, Path);
  InferenceResult Resumed = runInference(Net, Res);
  ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();
  ASSERT_TRUE(Straight.Exact && Resumed.Exact);
  EXPECT_EQ(posterior(*Straight.Exact, Net.Spec.Params),
            posterior(*Resumed.Exact, Net.Spec.Params));
  EXPECT_EQ(Straight.Spent.StatesExpanded, Resumed.Spent.StatesExpanded);
  EXPECT_EQ(Straight.Spent.SchedSteps, Resumed.Spent.SchedSteps);
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

TEST(Snapshot, RunInferenceResumeFailureIsInvalid) {
  LoadedNetwork Net = load(testnets::PaperExample);
  InferenceOptions Opts;
  Opts.Checkpoint = makeCp("", ::testing::TempDir() + "missing.snap");
  InferenceResult R = runInference(Net, Opts);
  EXPECT_FALSE(R.Status.ok());
  EXPECT_NE(R.Status.toString().find("cannot resume"), std::string::npos)
      << R.Status.toString();
}

// A library caller configures checkpointing through InferenceOptions only:
// a stray BAYONET_CHECKPOINT_OUT in the environment writes nothing.
TEST(Snapshot, RunInferenceIgnoresCheckpointEnvironment) {
  LoadedNetwork Net = load(testnets::PaperExample);
  std::string Path = snapPath();
  ::setenv("BAYONET_CHECKPOINT_OUT", Path.c_str(), 1);
  InferenceResult R = runInference(Net, InferenceOptions());
  ::unsetenv("BAYONET_CHECKPOINT_OUT");
  ASSERT_TRUE(R.Status.ok()) << R.Status.toString();
  EXPECT_FALSE(std::ifstream(Path).good()) << Path;
  EXPECT_FALSE(std::ifstream(Path + ".prev").good());
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}
