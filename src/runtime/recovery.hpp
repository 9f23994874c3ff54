// The runtime's one recovery decision (DESIGN.md D12): what a failed
// attempt costs, and where the stage runs next.  Pure: no threads,
// clocks, hooks or I/O.  The stage runner (engine.cpp) and the dynamic
// simulator (sim/dynamic_sim.cpp) both decide here and keep only their
// I/O: the failure report, the rescheduler call and host rebind, the
// backoff nap, the simulated transfer.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vdce::rt {

/// How one stage's attempt ended.  kCollateral is a failure another
/// stage caused, seen as a TransportError: a peer's link closed, a ring
/// was aborted, or a receive deadline passed.
enum class AttemptOutcome { kCompleted, kRefused, kFailed, kCollateral };

/// kMove excludes the host and re-places the stage; kFail fails the app.
enum class RecoveryAction { kKeep, kRetry, kMove, kFail };

struct StageFacts {
  int attempts = 1;  // charged so far, the first run included
  bool host_alive = true;
  AttemptOutcome outcome = AttemptOutcome::kCompleted;
};

struct RecoveryDecision {
  bool charge = false;  // one more attempt counts, one failure report
  RecoveryAction action = RecoveryAction::kKeep;
};

/// Decides one round, stage by stage; `cause` indexes its first failure.
/// Charge the cause, not the collateral:
///   * a refusal charges an attempt and moves the stage;
///   * a failure on a dead host charges and moves, whether the stage was
///     the cause or collateral: the death is its own cause;
///   * a task error on a live host charges and retries in place;
///   * a collateral failure on a live host is free and retries in place;
///   * a round that charges nothing else (receive timeouts alone) charges
///     its cause, so a run ends within 1 + stages * (max_attempts - 1)
///     rounds;
///   * a stage that must be charged but has used all `max_attempts`
///     fails the app instead (kFail, no charge).
/// A lone refusal or kill is a round of one stage.
[[nodiscard]] std::vector<RecoveryDecision> decide_recovery(
    std::span<const StageFacts> round, std::size_t cause, int max_attempts);

/// kFail's one wording: "task d exceeded 2 attempts (task c failed: ...)".
[[nodiscard]] std::string attempts_exceeded(std::string_view task,
                                            int max_attempts,
                                            std::string_view cause);

}  // namespace vdce::rt
