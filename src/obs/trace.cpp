#include "obs/trace.hpp"

#include <algorithm>

namespace aqueduct::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIssue: return "issue";
    case SpanKind::kSend: return "send";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kGsnAssign: return "gsn_assign";
    case SpanKind::kEnqueue: return "enqueue";
    case SpanKind::kExecute: return "execute";
    case SpanKind::kReply: return "reply";
    case SpanKind::kReceive: return "receive";
    case SpanKind::kComplete: return "complete";
    case SpanKind::kTimingFailure: return "timing_failure";
    case SpanKind::kAbandon: return "abandon";
    case SpanKind::kLazyPublish: return "lazy_publish";
  }
  return "unknown";
}

void TraceHub::add(TraceSink* sink) {
  if (sink == nullptr) return;
  if (std::find(sinks_.begin(), sinks_.end(), sink) != sinks_.end()) return;
  sinks_.push_back(sink);
}

void TraceHub::remove(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

}  // namespace aqueduct::obs
