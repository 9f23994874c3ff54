// Durable stream windows: the checkpoint store behind a stream's resume.
//
// A stream has no end, so a host death mid-stream cannot restart it
// from frame zero.  Every checkpoint_window emitted frames each sink of
// a StreamingEngine run captures its state (watermark, digest, byte
// count, retained outputs) into this store, keyed by (AppId, task) with
// the window index in the attempt slot; the next round, or a later
// execute() of the same app, resumes from the lowest durable window
// (DESIGN.md D9, *Windowed sink checkpoints*).  Batch runs keep their
// finished outputs across rounds inside one execute() and use no store.
//
// Thread-safe: the sink stages of one run record concurrently, and a
// resuming run reads while unrelated streams keep writing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "common/ids.hpp"
#include "datamgr/frame.hpp"
#include "tasklib/payload.hpp"

namespace vdce::rt {

using common::AppId;
using common::HostId;
using common::TaskId;

/// One task's durable record: a stream sink's latest window.
struct CheckpointEntry {
  TaskId task;
  /// The slot the record was captured under (a sink's window index).
  /// A re-record under a higher attempt replaces the entry;
  /// re-recording the same attempt is idempotent (the frame is already
  /// bit-fixed by the per-frame RNG seeds).
  int attempt = 1;
  /// The host the capturing stage ran on.
  HostId host;
  /// The wire image, pinned in the frame pool: the store holds a view
  /// of the slab (D13), so the pool cannot recycle it while the store
  /// holds it -- the bit-identity guarantee replay depends on.
  dm::FrameView frame;
};

/// Store-wide counters.
struct CheckpointStats {
  std::uint64_t tasks_captured = 0;
  std::uint64_t tasks_replaced = 0;  // re-captures under a higher attempt
  std::uint64_t frames_replayed = 0;
  std::uint64_t bytes_captured = 0;
};

/// Durable stream windows, one record per (app, task).
class CheckpointStore {
 public:
  /// Captures one wire image (shared zero-copy with its producer).
  /// Idempotent per (app, task, attempt); a higher attempt replaces the
  /// stored entry.
  void record(AppId app, TaskId task, int attempt, HostId host,
              dm::FrameView frame);

  /// Convenience: captures a payload by copying its wire image into a
  /// pooled frame (tests and callers without a frame at hand).
  void record(AppId app, TaskId task, int attempt, HostId host,
              const tasklib::Payload& output);

  /// The captured entry, or nullopt.  Returns a copy so the caller may
  /// hold it across concurrent record() calls; counts one frame replay
  /// when found.
  [[nodiscard]] std::optional<CheckpointEntry> replay(AppId app,
                                                      TaskId task) const;

  [[nodiscard]] CheckpointStats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<AppId, std::map<TaskId, CheckpointEntry>> apps_;
  mutable CheckpointStats stats_;
};

}  // namespace vdce::rt
