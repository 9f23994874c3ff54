#include "runtime/checkpoint.hpp"

namespace vdce::rt {

void CheckpointStore::record(AppId app, TaskId task, int attempt,
                             HostId host, dm::FrameView frame) {
  std::lock_guard lk(mu_);
  auto& tasks = apps_[app];
  const auto it = tasks.find(task);
  if (it != tasks.end()) {
    // Idempotent re-capture; only a strictly higher attempt replaces.
    if (attempt <= it->second.attempt) return;
    stats_.bytes_captured -= it->second.frame.size();
    ++stats_.tasks_replaced;
  } else {
    ++stats_.tasks_captured;
  }
  CheckpointEntry entry;
  entry.task = task;
  entry.attempt = attempt;
  entry.host = host;
  entry.frame = std::move(frame);  // refcount bump upstream, no copy here
  stats_.bytes_captured += entry.frame.size();
  tasks[task] = std::move(entry);
}

void CheckpointStore::record(AppId app, TaskId task, int attempt,
                             HostId host, const tasklib::Payload& output) {
  const auto wire = output.to_wire();
  record(app, task, attempt, host, dm::FramePool::global().copy_of(wire));
}

std::optional<CheckpointEntry> CheckpointStore::replay(AppId app,
                                                       TaskId task) const {
  std::lock_guard lk(mu_);
  const auto it = apps_.find(app);
  if (it == apps_.end()) return std::nullopt;
  const auto entry = it->second.find(task);
  if (entry == it->second.end()) return std::nullopt;
  ++stats_.frames_replayed;
  return entry->second;
}

CheckpointStats CheckpointStore::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace vdce::rt
