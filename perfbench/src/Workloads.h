//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the end-to-end benchmark. Each one starts from
/// Bayonet source text, calls only the library's public headers, and
/// checks every answer against a reference written down here (paper
/// rationals, closed forms, Figure 3 region values, or agreement of the
/// direct and translated pipelines) — never against the code under test.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PERFBENCH_WORKLOADS_H
#define BAYONET_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "support/Rational.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What a pass records besides its spans: queries attempted and failed.
struct Context {
  explicit Context(Recorder &Rec) : Rec(Rec) {}

  Recorder &Rec;
  /// Worker lanes handed to every engine (1 = the serial code path).
  unsigned Threads = 1;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failure descriptions, for the report.
  std::vector<std::string> Failures;

  /// Counts one query; a false \p Ok counts it failed.
  void check(bool Ok, const std::string &What);
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Reads the sources below \p Root and generates the inputs from
  /// \p Seed. \p Reduced shrinks the workload for the self-test;
  /// \p WrongRef perturbs one reference so the oracle must fail. Returns
  /// an error message, or an empty string on success.
  virtual std::string prepare(const std::string &Root, uint64_t Seed,
                              bool Reduced, bool WrongRef) = 0;
  /// The load and translation calls of one pass, and nothing else.
  virtual void setup(Context &C) = 0;
  /// One pass: from source text to every checked answer.
  virtual void pass(Context &C) = 0;
  /// Terminal weights of this workload's exact runs (for the arithmetic
  /// replay); empty when it runs no exact engine.
  virtual std::vector<bayonet::Rational> terminalWeights() { return {}; }
};

/// The workload named \p Name, or null.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);
/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // BAYONET_PERFBENCH_WORKLOADS_H
