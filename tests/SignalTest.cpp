//===- tests/SignalTest.cpp - Signal-driven graceful shutdown -------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graceful signal-driven shutdown: a SIGINT/SIGTERM handler may do
/// nothing but trip a CancelToken (its requestCancel is a relaxed atomic
/// store, so it is async-signal-safe); the engines then drain their
/// workers at the next serial boundary, write a final snapshot, and
/// report a Cancelled status that maps to the CLI's exit code 3. The
/// in-process tests here install a real sigaction handler and raise() the
/// signal, mirroring examples/bayonet_cli.cpp exactly.
///
//===----------------------------------------------------------------------===//

#include "api/Bayonet.h"
#include "support/Snapshot.h"

#include "TestNetworks.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include <unistd.h>

using namespace bayonet;

namespace {

LoadedNetwork load(const std::string &Src) {
  DiagEngine Diags;
  auto Net = loadNetwork(Src, Diags);
  EXPECT_TRUE(Net.has_value()) << Diags.toString();
  return std::move(*Net);
}

// The handler mirrors the CLI: one global token, one relaxed store.
CancelToken GTestCancel;

extern "C" void testSignalHandler(int) { GTestCancel.requestCancel(); }

/// Installs the handler for \p Sig and returns the previous action so the
/// test can restore it (gtest's death-test machinery and the default
/// disposition must survive this test).
struct sigaction installHandler(int Sig) {
  struct sigaction SA, Old;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = testSignalHandler;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESTART;
  sigaction(Sig, &SA, &Old);
  return Old;
}

std::string snapPath(const char *Tag) {
  return ::testing::TempDir() + "bayonet_signal_" + Tag + "_" +
         std::to_string(::getpid()) + ".snap";
}

} // namespace

// requestCancel is called from a real signal handler here; the run must
// stop with a Cancelled status at the next serial boundary.
TEST(Signal, SigtermTripsCancelTokenMidRun) {
  for (int Sig : {SIGTERM, SIGINT}) {
    SCOPED_TRACE(Sig == SIGTERM ? "SIGTERM" : "SIGINT");
    GTestCancel = CancelToken();
    struct sigaction Old = installHandler(Sig);

    LoadedNetwork Net = load(testnets::PaperExample);
    InferenceOptions Opts;
    Opts.Cancel = GTestCancel;

    // Raise the signal from a helper thread shortly after the run starts;
    // SA_RESTART keeps the engine's syscalls unperturbed, and the token
    // makes the stop boundary-clean no matter when the signal lands.
    std::thread Raiser([Sig] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ::kill(::getpid(), Sig);
    });
    InferenceResult R = runInference(Net, Opts);
    Raiser.join();
    sigaction(Sig, &Old, nullptr);

    // The signal may land after the (fast) run finished; both outcomes are
    // legal, but a stopped run must say Cancelled, never crash or hang.
    if (!R.Status.ok()) {
      EXPECT_NE(R.Status.toString().find("cancelled"), std::string::npos)
          << R.Status.toString();
    }
  }
}

// The full graceful-shutdown contract, made deterministic by tripping the
// token before the run: stop at the first boundary, write a final
// snapshot, and leave a state a later process resumes bit-identically.
TEST(Signal, GracefulShutdownWritesFinalSnapshotAndResumes) {
  GTestCancel = CancelToken();
  struct sigaction Old = installHandler(SIGTERM);
  ::raise(SIGTERM);
  sigaction(SIGTERM, &Old, nullptr);
  ASSERT_TRUE(GTestCancel.cancelRequested());

  LoadedNetwork Net = load(testnets::PaperExample);
  InferenceOptions PlainOpts;
  InferenceResult Straight = runInference(Net, PlainOpts);
  ASSERT_TRUE(Straight.Status.ok());

  std::string Path = snapPath("graceful");
  InferenceOptions Opts;
  Opts.Cancel = GTestCancel;
  CheckpointOptions CO;
  CO.OutPath = Path;
  Opts.Checkpoint = std::make_shared<Checkpointer>(CO);
  InferenceResult Stopped = runInference(Net, Opts);
  EXPECT_FALSE(Stopped.Status.ok());
  EXPECT_NE(Stopped.Status.toString().find("cancelled"), std::string::npos);
  EXPECT_GE(Opts.Checkpoint->writesDone(), 1u);

  InferenceOptions Res;
  CheckpointOptions RO;
  RO.ResumePath = Path;
  Res.Checkpoint = std::make_shared<Checkpointer>(RO);
  InferenceResult Resumed = runInference(Net, Res);
  ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();
  ASSERT_TRUE(Straight.Exact && Resumed.Exact);
  EXPECT_TRUE(Straight.Exact->QueryMass == Resumed.Exact->QueryMass);
  EXPECT_TRUE(Straight.Exact->OkMass == Resumed.Exact->OkMass);
  EXPECT_EQ(Straight.Spent.StatesExpanded, Resumed.Spent.StatesExpanded);
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}

// A cancellation that lands mid-run (not pre-tripped) still leaves a
// resumable snapshot stream: cancel from a watcher thread once the run
// has made some progress, then finish from whatever snapshot survived.
TEST(Signal, MidRunCancelLeavesResumableStream) {
  LoadedNetwork Net = load(testnets::PaperExample);
  InferenceOptions PlainOpts;
  InferenceResult Straight = runInference(Net, PlainOpts);
  ASSERT_TRUE(Straight.Status.ok());

  std::string Path = snapPath("midrun");
  CancelToken Cancel;
  InferenceOptions Opts;
  Opts.Cancel = Cancel;
  CheckpointOptions CO;
  CO.OutPath = Path;
  Opts.Checkpoint = std::make_shared<Checkpointer>(CO);
  std::thread Watcher([&Cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    Cancel.requestCancel();
  });
  InferenceResult Stopped = runInference(Net, Opts);
  Watcher.join();

  if (Stopped.Status.ok()) {
    // The run outpaced the watcher — nothing to resume, and that's fine.
    std::remove(Path.c_str());
    std::remove((Path + ".prev").c_str());
    return;
  }
  ASSERT_GE(Opts.Checkpoint->writesDone(), 1u);
  InferenceOptions Res;
  CheckpointOptions RO;
  RO.ResumePath = Path;
  Res.Checkpoint = std::make_shared<Checkpointer>(RO);
  InferenceResult Resumed = runInference(Net, Res);
  ASSERT_TRUE(Resumed.Status.ok()) << Resumed.Status.toString();
  ASSERT_TRUE(Straight.Exact && Resumed.Exact);
  EXPECT_TRUE(Straight.Exact->QueryMass == Resumed.Exact->QueryMass);
  EXPECT_EQ(Straight.Spent.StatesExpanded, Resumed.Spent.StatesExpanded);
  std::remove(Path.c_str());
  std::remove((Path + ".prev").c_str());
}
