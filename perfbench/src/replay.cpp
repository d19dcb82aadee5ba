#include "replay.h"

#include <algorithm>
#include <string>

#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "net/framing.h"
#include "obs/metrics.h"
#include "solver/simplex.h"
#include "system/protocol.h"

namespace perfbench {

namespace {

constexpr int kSolveEvery = 8;        // solver sample: every 8th reschedule
constexpr std::size_t kNetFrames = 20000;
constexpr std::size_t kReadChunk = 4096;  // the brokers' read size

std::int64_t counter(const char* name) {
  for (const auto& [n, v] : bate::obs::Registry::global().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Encodes `msgs` through encode_message + FrameBatch in batches of
/// `batch_frames` (the controller's one-write-per-peer unit), then decodes
/// the byte stream through FrameReader + decode_message in broker-sized
/// reads.
void time_net(const std::vector<bate::Message>& msgs, std::size_t batch_frames,
              SpanLog& spans, ReplayResult* out) {
  if (msgs.empty()) return;
  std::vector<std::uint8_t> bytes;
  std::int64_t t0 = now_ns();
  {
    ScopedSpan span(spans, "net.encode");
    bate::FrameBatch batch;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      batch.add(bate::encode_message(msgs[i]));
      if (batch.frame_count() == batch_frames || i + 1 == msgs.size()) {
        bytes.insert(bytes.end(), batch.bytes().begin(), batch.bytes().end());
        batch = bate::FrameBatch();  // fresh, as each controller flush is
      }
    }
  }
  const double n = static_cast<double>(msgs.size());
  out->encode_ns_per_frame = static_cast<double>(now_ns() - t0) / n;

  bate::FrameReader reader;
  std::size_t decoded = 0;
  t0 = now_ns();
  {
    ScopedSpan span(spans, "net.decode");
    for (std::size_t at = 0; at < bytes.size(); at += kReadChunk) {
      const std::size_t len = std::min(kReadChunk, bytes.size() - at);
      reader.feed({bytes.data() + at, len});
      while (auto frame = reader.next_frame()) {
        (void)bate::decode_message(frame->payload);
        ++decoded;
      }
    }
  }
  out->decode_ns_per_frame =
      static_cast<double>(now_ns() - t0) / static_cast<double>(decoded);
}

}  // namespace

ReplayResult replay(const LiveStack& live, SpanLog& spans, double budget_s,
                    std::size_t window_begin, std::size_t window_end) {
  ReplayResult res;
  const StackConfig& cfg = live.config();
  const auto& reqs = live.requests();
  const auto& ops = live.op_log();
  res.ops_total = static_cast<long>(ops.size());

  bate::TrafficScheduler scheduler(live.topo(), live.catalog(), cfg.scheduler);
  bate::AdmissionController admission(scheduler,
                                      bate::AdmissionStrategy::kBate);
  bate::BackupPlanner planner(live.topo(), live.catalog());
  const std::int64_t lanes0 = counter("bate_batch_lanes_total");
  long precomputes = 0;
  long admitted = 0;
  long via_conjecture = 0;
  int reschedules = 0;
  bool in_window = false;

  const auto reschedule = [&] {
    const std::int64_t t = now_ns();
    {
      ScopedSpan span(spans, "core.reschedule");
      admission.reschedule();
    }
    const double ms = static_cast<double>(now_ns() - t) / 1e6;
    res.reschedule_ms.push_back(ms);
    if (in_window) res.window_reschedule_ms += ms;
    if (reschedules++ % kSolveEvery != 0 || admission.admitted().empty()) {
      return;
    }
    const bate::Model model = [&] {
      ScopedSpan span(spans, "solver.build_schedule_model");
      return scheduler.build_schedule_model(admission.admitted());
    }();
    ScopedSpan span(spans, "solver.solve_lp");
    const bate::Solution sol = bate::solve_lp(model, cfg.scheduler.lp);
    res.lp_iterations.push_back(static_cast<double>(sol.iterations));
    res.lp_rows.push_back(static_cast<double>(model.constraint_count()));
  };
  const auto precompute = [&] {
    const std::int64_t t = now_ns();
    {
      ScopedSpan span(spans, "core.precompute");
      planner.precompute(admission.admitted(), admission.allocations());
    }
    res.precompute_ms.push_back(static_cast<double>(now_ns() - t) / 1e6);
    ++precomputes;
  };

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (const ReplayOp& op : ops) {
    if (now_ns() > deadline) break;
    const auto index = static_cast<std::size_t>(res.ops_replayed++);
    in_window = index >= window_begin && index < window_end;
    switch (op.kind) {
      case Event::kSubmit: {
        std::vector<bate::Demand> batch;
        batch.reserve(op.reqs.size());
        for (const int i : op.reqs) {
          batch.push_back(reqs[static_cast<std::size_t>(i)].demand);
        }
        const std::int64_t t = now_ns();
        bate::BatchAdmissionOutcome out;
        {
          ScopedSpan span(spans, "core.offer_batch",
                          static_cast<std::uint64_t>(batch.front().id));
          out = admission.offer_batch(batch);
        }
        res.offer_batch_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        bool any = false;
        for (const bate::AdmissionOutcome& o : out.outcomes) {
          if (!o.admitted) continue;
          any = true;
          ++admitted;
          if (o.via_conjecture) ++via_conjecture;
        }
        if (!any) break;
        if (!out.rescheduled && cfg.controller.reschedule_after_batch) {
          reschedule();
        }
        if (cfg.controller.precompute_backup) precompute();
        break;
      }
      case Event::kWithdraw: {
        const bate::DemandId id =
            reqs[static_cast<std::size_t>(op.reqs.front())].demand.id;
        const std::int64_t t = now_ns();
        {
          ScopedSpan span(spans, "core.remove", static_cast<std::uint64_t>(id));
          admission.remove(id);
        }
        res.remove_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        // The controller re-plans after every withdraw, whatever its config.
        reschedule();
        precompute();
        break;
      }
      case Event::kDown: {
        const std::int64_t t = now_ns();
        {
          ScopedSpan span(spans, "core.plan");
          (void)planner.plan(static_cast<bate::LinkId>(op.link));
        }
        res.plan_lookup_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        break;
      }
      default:
        break;
    }
  }
  res.conjecture_share =
      admitted > 0 ? static_cast<double>(via_conjecture) /
                         static_cast<double>(admitted)
                   : 0.0;
  res.lanes_per_precompute =
      precomputes > 0
          ? static_cast<double>(counter("bate_batch_lanes_total") - lanes0) /
                static_cast<double>(precomputes)
          : 0.0;

  // Net layer: the run's own submit frames, then its allocation rows, in
  // batches the size of one full broadcast of the live table.
  std::vector<bate::Message> msgs;
  for (std::size_t i = 0; i < reqs.size() && msgs.size() < kNetFrames / 2;
       ++i) {
    msgs.emplace_back(bate::SubmitDemandMsg{reqs[i].demand, i + 1});
  }
  const auto& admitted_now = admission.admitted();
  const auto& allocs = admission.allocations();
  for (std::size_t i = 0; i < admitted_now.size() && msgs.size() < kNetFrames;
       ++i) {
    bate::AllocationUpdateMsg u;
    u.id = admitted_now[i].id;
    u.pair = admitted_now[i].pairs[0].pair;
    u.tunnel_mbps = allocs[i][0];
    msgs.emplace_back(std::move(u));
  }
  time_net(msgs, std::max<std::size_t>(1, live.live_admitted().size()), spans,
           &res);
  return res;
}

}  // namespace perfbench
