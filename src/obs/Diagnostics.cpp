//===- obs/Diagnostics.cpp - Inference-quality diagnostics -----------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Diagnostics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace bayonet;

namespace {

// The warning levels. An SMC step whose ESS falls below this fraction of
// the population is degenerate; an exact round whose frontier reaches this
// size is a state-space blowup, warned about once per run.
constexpr double EssWarnFraction = 0.1;
constexpr uint64_t FrontierWarnSize = 1000000;

bool blowup(const BoundaryRow &R) {
  return R.Kind != EngineKind::Smc &&
         std::max(R.FrontierIn, R.FrontierOut) >= FrontierWarnSize;
}

} // namespace

double bayonet::mergeHitRate(const BoundaryDelta &D) {
  return D.MergeAttempts ? static_cast<double>(D.MergeHits) /
                               static_cast<double>(D.MergeAttempts)
                         : 0.0;
}

bool bayonet::degenerate(const RunLog &Log, const BoundaryRow &R) {
  return Log.Particles > 0 && Log.essFraction(R) < EssWarnFraction;
}

double DiagCollector::essWarnFraction() const { return EssWarnFraction; }

bool DiagCollector::firstBlowup(size_t I) const {
  return blowup(Log.Rows[I]) &&
         std::none_of(Log.Rows.begin(), Log.Rows.begin() + I, blowup);
}

DiagReport DiagCollector::report() const {
  DiagReport Out;
  Out.Rows = Log.Rows;
  InferenceDiagnostics &S = Out.Summary;
  S.Engine = Log.Engine;
  S.Particles = Log.Particles;
  S.SupportSize = Log.Support;
  S.ResidualMassKnown = Log.Residual.has_value();
  S.ResidualMass = Log.Residual.value_or(0);
  S.TvDivergence = Log.Tv;
  bool HaveMin = false;
  for (const BoundaryRow &R : Log.Rows) {
    if (R.Kind != EngineKind::Smc) {
      S.PeakFrontier =
          std::max(S.PeakFrontier, std::max(R.FrontierIn, R.FrontierOut));
      continue;
    }
    const double Ess = static_cast<double>(R.Alive);
    if (R.Resampled)
      ++S.Resamples;
    if (!HaveMin || Ess < S.MinEss) {
      HaveMin = true;
      S.MinEss = Ess;
      S.MinEssFraction = Log.essFraction(R);
      S.MinEssStep = R.Step;
    }
    S.FinalEss = Ess;
  }
  char Buf[128];
  if (HaveMin && S.MinEssFraction < EssWarnFraction) {
    std::snprintf(Buf, sizeof(Buf),
                  "ESS fell to %.1f%% of particles at step %lld",
                  S.MinEssFraction * 100.0,
                  static_cast<long long>(S.MinEssStep));
    S.Warnings.push_back(Buf);
  }
  auto Blown = std::find_if(Log.Rows.begin(), Log.Rows.end(), blowup);
  if (Blown != Log.Rows.end()) {
    std::snprintf(Buf, sizeof(Buf),
                  "frontier grew to %llu states at round %lld",
                  static_cast<unsigned long long>(
                      std::max(Blown->FrontierIn, Blown->FrontierOut)),
                  static_cast<long long>(Blown->Step));
    S.Warnings.push_back(Buf);
  }
  return Out;
}

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

// Appends \p Prefix and then the value. Deterministic formatting: same
// value -> same bytes, everywhere.
void put(std::string &Out, const char *Prefix, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out.append(Prefix).append(Buf);
}

void put(std::string &Out, const char *Prefix, uint64_t V) {
  Out.append(Prefix).append(std::to_string(V));
}

void put(std::string &Out, const char *Prefix, int64_t V) {
  Out.append(Prefix).append(std::to_string(V));
}

} // namespace

std::string DiagReport::toJson() const {
  const InferenceDiagnostics &S = Summary;
  std::string J = "{\n  \"schema\": 1,\n  \"engine\": ";
  appendEscaped(J, S.Engine);
  put(J, ",\n  \"particles\": ", S.Particles);
  put(J, ",\n  \"resamples\": ", S.Resamples);
  put(J, ",\n  \"final_ess\": ", S.FinalEss);
  put(J, ",\n  \"min_ess\": ", S.MinEss);
  put(J, ",\n  \"min_ess_fraction\": ", S.MinEssFraction);
  put(J, ",\n  \"min_ess_step\": ", S.MinEssStep);
  put(J, ",\n  \"support_size\": ", S.SupportSize);
  put(J, ",\n  \"peak_frontier\": ", S.PeakFrontier);
  if (S.ResidualMassKnown)
    put(J, ",\n  \"residual_mass\": ", S.ResidualMass);
  if (S.TvDivergence)
    put(J, ",\n  \"tv_divergence\": ", *S.TvDivergence);
  J += ",\n  \"warnings\": [";
  for (size_t I = 0; I < S.Warnings.size(); ++I) {
    J += I ? ", " : "";
    appendEscaped(J, S.Warnings[I]);
  }
  J += "],\n  \"smc_steps\": [";
  // Two passes over the rows: SMC steps, then exact and PSI rounds.
  const double N = static_cast<double>(S.Particles);
  bool First = true;
  for (const BoundaryRow &D : Rows) {
    if (D.Kind != EngineKind::Smc)
      continue;
    J += First ? "\n    {" : ",\n    {";
    First = false;
    put(J, "\"step\": ", D.Step);
    put(J, ", \"active\": ", D.Active);
    put(J, ", \"alive\": ", D.Alive);
    put(J, ", \"ess\": ", static_cast<double>(D.Alive));
    put(J, ", \"ess_fraction\": ", S.Particles ? D.Alive / N : 0.0);
    // Hard observes give 0/1 weights: CV = sqrt(N / Alive - 1). The
    // log-weight fields are kept at 0 for the schema.
    put(J, ", \"weight_cv\": ", D.Alive ? std::sqrt(N / D.Alive - 1.0) : 0.0);
    J += ", \"min_log_weight\": 0, \"max_log_weight\": 0";
    put(J, ", \"dead_mass_fraction\": ", S.Particles ? (N - D.Alive) / N : 0.0);
    J += D.Resampled ? ", \"resampled\": true}" : ", \"resampled\": false}";
  }
  J += First ? "]" : "\n  ]";
  J += ",\n  \"exact_rounds\": [";
  First = true;
  for (const BoundaryRow &D : Rows) {
    if (D.Kind == EngineKind::Smc)
      continue;
    J += First ? "\n    {" : ",\n    {";
    First = false;
    put(J, "\"step\": ", D.Step);
    put(J, ", \"frontier_in\": ", D.FrontierIn);
    put(J, ", \"frontier_out\": ", D.FrontierOut);
    put(J, ", \"expanded\": ", D.Expanded);
    put(J, ", \"merge_attempts\": ", D.MergeAttempts);
    put(J, ", \"merge_hits\": ", D.MergeHits);
    put(J, ", \"merge_hit_rate\": ", mergeHitRate(D));
    put(J, ", \"tx_hits\": ", D.TxHits);
    put(J, ", \"tx_misses\": ", D.TxMisses);
    put(J, ", \"tx_bytes\": ", D.TxBytes);
    J += "}";
  }
  J += First ? "]" : "\n  ]";
  J += "\n}\n";
  return J;
}
