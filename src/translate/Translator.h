//===- translate/Translator.h - Bayonet to PSI IR translation --*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a checked Bayonet network into a single PSI IR program,
/// mirroring the paper's Figures 9 and 10: per-node input/output queues and
/// state variables become frame variables, each node's program becomes the
/// body of its Run action, the scheduler becomes one Schedule statement
/// whose arms are the action slots (PsiExact runs it through the same
/// net/Scheduler as the direct engines; the round-robin rotor is a
/// scheduler-state slot), and main() repeats that step num_steps times,
/// followed by assert(terminated()) and the query expression.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_TRANSLATE_TRANSLATOR_H
#define BAYONET_TRANSLATE_TRANSLATOR_H

#include "net/NetworkSpec.h"
#include "psi/PsiIr.h"
#include "support/Diag.h"

#include <optional>

namespace bayonet {

/// Translates \p Spec into a PSI IR program. Returns nullopt (with
/// diagnostics) when an expression cannot be translated.
std::optional<PsiProgram> translateToPsi(const NetworkSpec &Spec,
                                         DiagEngine &Diags);

} // namespace bayonet

#endif // BAYONET_TRANSLATE_TRANSLATOR_H
