// Replay pass of the traced run: the live run's recorded event order fed
// straight through the core, solver and net layers, with a span around
// every call, so each layer's cost is measured without the event loop,
// sockets or scheduling noise of the live stack around it.
#pragma once

#include <vector>

#include "common.h"
#include "live.h"

namespace perfbench {

struct ReplayResult {
  std::vector<double> offer_batch_us;
  std::vector<double> reschedule_ms;
  std::vector<double> remove_us;
  std::vector<double> precompute_ms;
  std::vector<double> plan_lookup_us;
  std::vector<double> lp_iterations;
  std::vector<double> lp_rows;
  double window_reschedule_ms = 0.0;  // summed over the window's ops
  double conjecture_share = 0.0;  // admissions via Algorithm 1 / admissions
  double lanes_per_precompute = 0.0;
  double encode_ns_per_frame = 0.0;
  double decode_ns_per_frame = 0.0;
  long ops_replayed = 0;
  long ops_total = 0;
};

/// Replays `live.op_log()` against a fresh scheduler/admission
/// controller/backup planner built from the live stack's topology, catalog
/// and configuration. Stops early once `budget_s` of wall time is spent
/// (ops_replayed < ops_total then). Scheduling time spent on ops
/// [window_begin, window_end) is summed into window_reschedule_ms.
ReplayResult replay(const LiveStack& live, SpanLog& spans, double budget_s,
                    std::size_t window_begin, std::size_t window_end);

}  // namespace perfbench
