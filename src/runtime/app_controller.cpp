#include "runtime/app_controller.hpp"

namespace vdce::rt {

ApplicationController::ApplicationController(dm::ChannelBroker& broker,
                                             dm::MpLibrary library,
                                             common::AppId app, HostId host)
    : app_(app), host_(host), dm_(broker, library) {}

void ApplicationController::activate(const dm::TaskWiring& wiring) {
  wiring_ = wiring;
  dm_.setup(wiring);
}

void ApplicationController::set_load_guard(LoadProbe probe, double threshold) {
  probe_ = std::move(probe);
  threshold_ = threshold;
}

void ApplicationController::set_fault_guard(AliveProbe probe) {
  alive_probe_ = std::move(probe);
}

TaskOutcome ApplicationController::execute(
    const tasklib::TaskRegistry& registry, const std::string& library_task,
    const tasklib::TaskContext& ctx, dm::ConsoleService* console) {
  TaskOutcome outcome;
  // Refusal path: channels stay open (caller owns teardown), but the
  // stats must still reflect the setup traffic so far.
  const auto refuse = [&](RescheduleRequest::Kind kind, std::string reason,
                          double load) {
    RescheduleRequest& req = outcome.reschedule.emplace();
    req.app = app_;
    req.task = wiring_.task;
    req.host = host_;
    req.observed_load = load;
    req.kind = kind;
    req.reason = std::move(reason);
    outcome.io_stats = dm_.stats();
    return outcome;
  };

  // Pre-compute fault guard: a host inside a failure window never gets
  // the task (checked before the load guard -- a dead host's load
  // reading is meaningless).
  if (alive_probe_ && !alive_probe_(host_)) {
    return refuse(RescheduleRequest::Kind::kHostFailure,
                  "host " + std::to_string(host_.value()) + " is down", 0.0);
  }

  // Pre-compute load guard: "If the current load on any of these
  // machines is more than a predefined threshold value, the Application
  // Controller terminates the task execution on the machine and sends a
  // task rescheduling request".
  if (probe_) {
    const double load = probe_();
    if (load > threshold_) {
      return refuse(RescheduleRequest::Kind::kLoadThreshold,
                    "load " + std::to_string(load) + " above threshold " +
                        std::to_string(threshold_),
                    load);
    }
  }

  auto payload = dm_.run_frame(registry, library_task, ctx, console);
  outcome.io_stats = dm_.stats();
  if (!payload) {
    outcome.end_of_stream = true;
    return outcome;
  }
  outcome.payload = std::move(*payload);
  outcome.compute_elapsed_s = dm_.compute_s();
  outcome.completed = true;
  outcome.output_frame = dm_.output_frame();
  return outcome;
}

void ApplicationController::shutdown() { dm_.teardown(); }

}  // namespace vdce::rt
