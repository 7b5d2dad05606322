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
/// body of its Run action, the probabilistic scheduler becomes a uniform
/// draw over the enabled actions (the round-robin rotor becomes a
/// scheduler-state slot), and main() unrolls num_steps global steps
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
