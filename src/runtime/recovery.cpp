#include "runtime/recovery.hpp"

namespace vdce::rt {

std::vector<RecoveryDecision> decide_recovery(
    std::span<const StageFacts> round, std::size_t cause, int max_attempts) {
  std::vector<RecoveryDecision> decisions(round.size());
  bool charged = false;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const StageFacts& s = round[i];
    if (s.outcome == AttemptOutcome::kCompleted) continue;
    const bool moves = s.outcome == AttemptOutcome::kRefused || !s.host_alive;
    decisions[i].action =
        moves ? RecoveryAction::kMove : RecoveryAction::kRetry;
    decisions[i].charge = moves || s.outcome == AttemptOutcome::kFailed;
    charged = charged || decisions[i].charge;
  }
  if (!charged && cause < round.size() &&
      round[cause].outcome != AttemptOutcome::kCompleted) {
    decisions[cause].charge = true;
  }
  for (std::size_t i = 0; i < round.size(); ++i) {
    if (decisions[i].charge && round[i].attempts >= max_attempts) {
      decisions[i] = {false, RecoveryAction::kFail};
    }
  }
  return decisions;
}

std::string attempts_exceeded(std::string_view task, int max_attempts,
                              std::string_view cause) {
  return "task " + std::string(task) + " exceeded " +
         std::to_string(max_attempts) + " attempts (" + std::string(cause) +
         ")";
}

}  // namespace vdce::rt
