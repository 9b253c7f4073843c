// The daemon's request core: the epoll reactor (reactor.h) reassembles
// frames, then hands every well-framed request here. One implementation
// means one blast-radius table: malformed body / unknown type / unknown
// workflow / tripped control / engine exception all become the same typed
// response bytes whichever thread runs the request — an executor worker, a
// reactor thread on a single-core host, or an in-process caller.
//
//   failure                          blast radius
//   ------------------------------   -------------------------------------
//   bad magic / version / body_len   error response, THIS connection closes
//                                    (decided by the reactor's framing)
//   unknown request type             error response, connection survives
//   malformed request body           error response, connection survives
//   unknown workflow name            NOT_FOUND response, connection survives
//   deadline / memory budget trip    typed response, connection survives
//   admission gate saturated         RESOURCE_EXHAUSTED, connection survives
//   engine exception                 INTERNAL response, connection survives
//   peer hangs up mid-frame          connection closes quietly
#ifndef PROVVIEW_SERVER_HANDLER_H_
#define PROVVIEW_SERVER_HANDLER_H_

#include <string>
#include <string_view>

#include "server/admission.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/stats.h"

namespace provview {

class TaskGraphExecutor;

/// Everything a request needs, owned by the daemon and outliving every
/// connection.
struct RequestContext {
  WorkflowRegistry* registry = nullptr;
  DaemonStats* stats = nullptr;
  /// Shared engine executor; null = engines run inline on the calling
  /// thread (a single-core host, where the daemon creates no executor).
  TaskGraphExecutor* executor = nullptr;
  /// The request-level admission gate + shared memory pool (never null).
  AdmissionController* admission = nullptr;
  /// Reported in STAT; the Reactor sets it to its own thread count.
  int reactor_threads = 0;
  /// True when the calling thread is free to help the executor run its own
  /// graph (an in-process caller of HandleFrame). False when the caller IS
  /// an executor worker (the reactor dispatch path) — it already counts.
  bool caller_helps = true;
};

/// Dispatches one well-framed request and returns the complete response
/// frame. Exceptions from the engines are caught inside (the request-level
/// catch wall) and become INTERNAL responses; this never throws.
std::string HandleFrame(const RequestContext& ctx, const FrameHeader& header,
                        std::string_view body);

}  // namespace provview

#endif  // PROVVIEW_SERVER_HANDLER_H_
