//===- psi/PsiLiveness.h - Dead slots at PSI IR merge points ---*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness over a PSI IR program, reported at the points where
/// the exact engine merges equal environments: the per-iteration merge of
/// Repeat and While, and the exit merge of While.
/// A slot is dead at such a point when no path from it reads the slot
/// before writing it. Resetting dead slots to a canonical value there lets
/// environments that agree on everything still live merge — the
/// marginalization of dead variables that PSI performs.
///
/// Every read is a use, including reads whose only effect is to decide a
/// failure (an index bound, the queue of a push or pop, an observe/assert
/// condition), so a reset never moves a weight or the error mass.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PSI_PSILIVENESS_H
#define BAYONET_PSI_PSILIVENESS_H

#include "psi/PsiIr.h"

#include <unordered_map>
#include <vector>

namespace bayonet {

/// The slots dead at one statement's merge points, ascending.
struct MergeDeadSlots {
  /// After each iteration's body (Repeat, While).
  std::vector<unsigned> Iter;
  /// At the exit merge of a While.
  std::vector<unsigned> Exit;
};

/// Dead-slot lists for every Repeat and While statement of a program,
/// keyed by statement.
using PsiLiveness = std::unordered_map<const PStmt *, MergeDeadSlots>;

/// Computes the merge-point dead slots of \p P. The result expression is
/// live at program end; loop headers are solved to a fixpoint.
PsiLiveness computeMergeLiveness(const PsiProgram &P);

/// The slots a statement list may read and may write, each ascending.
/// Every read counts, as in the liveness pass: the reads include the
/// list's live-in set, and a slot read only after a write is a written
/// slot too.
struct BodyUses {
  std::vector<unsigned> Reads;
  std::vector<unsigned> Writes;
};

/// The read and write sets of \p Body.
BodyUses computeBodyUses(const std::vector<PStmtPtr> &Body);

} // namespace bayonet

#endif // BAYONET_PSI_PSILIVENESS_H
