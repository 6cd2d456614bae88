#include "sched/job_graph.hpp"

#include <stdexcept>

namespace indigo::sched {

const char* to_string(ExecClass c) {
  switch (c) {
    case ExecClass::ModelTimed: return "model_timed";
    case ExecClass::WallClock: return "wall_clock";
  }
  return "?";
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Quarantined: return "quarantined";
  }
  return "?";
}

const char* to_string(FailureKind f) {
  switch (f) {
    case FailureKind::None: return "none";
    case FailureKind::Exception: return "exception";
    case FailureKind::Timeout: return "timeout";
  }
  return "?";
}

JobId JobGraph::add(Job j) {
  if (!j.work) throw std::invalid_argument("JobGraph::add: job has no work");
  jobs_.push_back(std::move(j));
  return static_cast<JobId>(jobs_.size() - 1);
}

}  // namespace indigo::sched
