#include "live.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "net/framing.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// A phase that has not drained this long after its last event has lost
/// verdicts, allocations or backup tables.
constexpr std::int64_t kDrainTimeoutUs = 30'000'000;
constexpr int kObserverDc = 99;
constexpr int kRcvBuf = 4 * 1024 * 1024;
/// A link carrying no more than this is unaffected by its failure and gets
/// no backup plan (BackupPlanner::precompute's threshold).
constexpr double kUnloadedMbps = 1e-9;

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

double ms_between(std::int64_t from_us, std::int64_t to_us) {
  return static_cast<double>(to_us - from_us) / 1000.0;
}

}  // namespace

LiveStack::LiveStack(const StackConfig& cfg, SpanLog& spans, bool trace_frames)
    : cfg_(cfg), spans_(spans), trace_frames_(trace_frames) {
  // One stack at a time: the registry is process-wide, so the peer gauge
  // and every scraped counter must start from zero for this stack.
  bate::obs::Registry::global().reset();

  const double cpu0 = cpu_us();
  std::int64_t t = now_ns();
  {
    ScopedSpan span(spans_, "routing.catalog_build");
    topo_ = std::make_unique<bate::Topology>(cfg_.topology());
    catalog_ = std::make_unique<bate::TunnelCatalog>(
        bate::TunnelCatalog::build_all_pairs(*topo_, cfg_.tunnels_per_pair));
  }
  setup.catalog_ms = static_cast<double>(now_ns() - t) / 1e6;

  t = now_ns();
  {
    ScopedSpan span(spans_, "scenario.scheduler_build");
    controller_ = std::make_unique<bate::Controller>(
        *topo_, *catalog_, cfg_.scheduler, bate::AdmissionStrategy::kBate,
        cfg_.controller);
  }
  setup.scheduler_ms = static_cast<double>(now_ns() - t) / 1e6;

  t = now_ns();
  {
    ScopedSpan span(spans_, "system.stack_start");
    controller_->start();
    for (int b = 0; b < cfg_.brokers; ++b) {
      brokers_.push_back(
          std::make_unique<bate::Broker>(b, controller_->port()));
      brokers_.back()->start();
    }
    connect_all();
    wait_peers(cfg_.tenants + 1 + cfg_.brokers);
  }
  setup.start_ms = static_cast<double>(now_ns() - t) / 1e6;
  setup.cpu_ms = (cpu_us() - cpu0) / 1e3;
}

LiveStack::~LiveStack() {
  // Controller first: its last broadcasts must not race broker shutdown.
  if (controller_) controller_->stop();
  for (auto& b : brokers_) b->stop();
}

void LiveStack::connect_all() {
  const std::uint16_t port = controller_->port();
  for (int c = 0; c <= cfg_.tenants; ++c) {
    Conn conn;
    conn.socket = bate::connect_tcp(port);
    conn.socket.set_nodelay(true);
    conn.fd = conn.socket.fd();
    // A deep receive buffer: the controller writes large SLO payloads and
    // broadcast bursts on a nonblocking socket and drops what does not fit.
    const int rcvbuf = kRcvBuf;
    ::setsockopt(conn.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    const bool observer = c == cfg_.tenants;
    const bate::HelloMsg hello{observer ? "broker" : "user",
                               observer ? kObserverDc : 100 + c};
    conn.socket.write_all(bate::encode_frame(bate::encode_message(hello)));
    conns_.push_back(std::move(conn));
  }
}

void LiveStack::wait_peers(int expected) {
  const std::string key = "\"bate_controller_peers\":";
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const std::string body = scrape_stats();
    const std::size_t at = body.find(key);
    if (at != std::string::npos &&
        std::atof(body.c_str() + at + key.size()) >= expected) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  throw std::runtime_error("stack start: peers never connected");
}

int LiveStack::add_request(Demand d, int tenant, bool timed) {
  const int index = static_cast<int>(reqs_.size());
  d.id = index + 1;
  Request r;
  r.demand = std::move(d);
  r.tenant = tenant;
  r.timed = timed;
  reqs_.push_back(std::move(r));
  rows_.emplace_back();
  return index;
}

std::vector<int> LiveStack::live_admitted() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    const Request& q = reqs_[i];
    if (q.replies == 1 && q.status == AdmissionStatus::kAdmitted &&
        !q.withdraw_sent) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

void LiveStack::fail(std::string what) {
  // Keep the first few messages verbatim; the count is what gates.
  if (errors_.size() < 64) {
    errors_.push_back(std::move(what));
  } else {
    errors_.emplace_back();
  }
}

void LiveStack::drain(int ci, std::int64_t now) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  const bool tenant = ci < cfg_.tenants;
  while (true) {
    if (c.inpos > 0) {
      c.inbuf.erase(c.inbuf.begin(),
                    c.inbuf.begin() + static_cast<std::ptrdiff_t>(c.inpos));
      c.inpos = 0;
    }
    const std::size_t old = c.inbuf.size();
    c.inbuf.resize(old + kReadChunk);
    const long n = ::recv(c.fd, c.inbuf.data() + old, kReadChunk, MSG_DONTWAIT);
    if (n <= 0) {
      c.inbuf.resize(old);
      if (n == 0) fail("controller closed a client connection");
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        fail(std::string("recv: ") + std::strerror(errno));
      }
      return;
    }
    c.inbuf.resize(old + static_cast<std::size_t>(n));
    now = now_us();
    const long replies_before = cur_ != nullptr ? cur_->replies : 0;
    const std::int64_t t_decode = spans_.enabled() ? now_us() : 0;
    // Split frames in place (the length word's bit 31 flags a 16-byte
    // trace context) and decode each payload through the protocol.
    while (c.inbuf.size() - c.inpos >= 4) {
      const std::uint32_t word = read_u32(c.inbuf.data() + c.inpos);
      const std::size_t len = word & ~bate::kFrameTraceFlag;
      const std::size_t header =
          4 + ((word & bate::kFrameTraceFlag) != 0 ? 16 : 0);
      if (c.inbuf.size() - c.inpos < header + len) break;
      const std::span<const std::uint8_t> payload(
          c.inbuf.data() + c.inpos + header, len);
      c.inpos += header + len;
      try {
        handle(ci, bate::decode_message(payload), now);
      } catch (const std::exception& e) {
        fail(std::string("undecodable frame: ") + e.what());
      }
    }
    if (spans_.enabled()) {
      spans_.add("net.decode_read", t_decode, now_us() - t_decode, 0);
    }
    if (tenant && cur_ != nullptr && cur_->replies > replies_before) {
      ++cur_->reply_reads;
    }
  }
}

void LiveStack::handle(int ci, const bate::Message& msg, std::int64_t now) {
  if (const auto* r = std::get_if<bate::AdmissionReplyMsg>(&msg)) {
    on_reply(ci, *r, now);
  } else if (const auto* u = std::get_if<bate::AllocationUpdateMsg>(&msg)) {
    if (ci != cfg_.tenants) {
      fail("allocation update on a user connection");
      return;
    }
    on_update(*u, now);
  } else if (const auto* s = std::get_if<bate::StatsReplyMsg>(&msg)) {
    if (want_stats_ && bodies_pending_ > 0) {
      last_body_ = s->body;
      --bodies_pending_;
    }
  } else if (const auto* s = std::get_if<bate::SloReplyMsg>(&msg)) {
    if (scrapes_pending_ > 0 && cur_ != nullptr) {
      const std::size_t done =
          scrape_sent_.size() - static_cast<std::size_t>(scrapes_pending_);
      cur_->scrape_ms.push_back(ms_between(scrape_sent_[done], now));
      cur_->scrape_bytes += static_cast<double>(s->body.size());
      --scrapes_pending_;
      if (spans_.enabled()) {
        spans_.add("obs.slo_scrape", scrape_sent_[done],
                   now - scrape_sent_[done], 0);
      }
    } else if (want_slo_ && bodies_pending_ > 0) {
      last_body_ = s->body;
      --bodies_pending_;
    }
  } else {
    fail("unexpected message type on a client connection");
  }
}

void LiveStack::on_reply(int ci, const bate::AdmissionReplyMsg& r,
                         std::int64_t now) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (r.request_id == 0 || r.request_id > c.rid_to_req.size()) {
    fail("verdict with unknown request_id " + std::to_string(r.request_id));
    return;
  }
  const int index = c.rid_to_req[r.request_id - 1];
  Request& q = reqs_[static_cast<std::size_t>(index)];
  if (q.demand.id != r.id) {
    fail("verdict for request " + std::to_string(r.request_id) +
         " names demand " + std::to_string(r.id) + ", expected " +
         std::to_string(q.demand.id));
    return;
  }
  if (++q.replies > 1) {
    fail("second verdict for demand " + std::to_string(q.demand.id));
    return;
  }
  --outstanding_;
  q.reply_us = now;
  q.status = r.status;
  if (cur_ != nullptr) ++cur_->replies;
  switch (r.status) {
    case AdmissionStatus::kAdmitted:
      if (cur_ != nullptr) ++cur_->admitted;
      if (q.live_us == 0) ++live_pending_;
      break;
    case AdmissionStatus::kRejected:
      if (cur_ != nullptr) ++cur_->rejected;
      break;
    case AdmissionStatus::kShed:
      if (cur_ != nullptr) ++cur_->shed;
      if (!shed_ok_) fail("demand " + std::to_string(q.demand.id) + " shed");
      break;
    case AdmissionStatus::kDuplicate:
      fail("demand " + std::to_string(q.demand.id) + " bounced as duplicate");
      break;
  }
  if (spans_.enabled()) {
    spans_.add("demand.verdict", q.sched_us, now - q.sched_us,
               static_cast<std::uint64_t>(q.demand.id));
  }
  if (q.withdraw_deferred) {
    q.withdraw_deferred = false;
    if (q.status == AdmissionStatus::kAdmitted) send_withdraw(index);
  }
}

void LiveStack::on_update(const bate::AllocationUpdateMsg& u,
                          std::int64_t now) {
  if (track_) {
    // Frame n of the phase belongs to the broadcast answering link report
    // n / rows: a down report must be answered by backup rows, an up report
    // by the primary table.
    const std::size_t k = frames_seen_++ / rows_per_broadcast_;
    if (k < link_sent_.size() &&
        u.backup != (link_sent_[k].kind == Event::kDown)) {
      fail(std::string(u.backup ? "backup" : "primary") +
           " row answering a link " +
           (link_sent_[k].kind == Event::kDown ? "down" : "up") + " report");
    }
    if (frames_seen_ % rows_per_broadcast_ == 0) {
      if (k >= link_sent_.size()) {
        fail("full broadcast without a link report");
      } else {
        ++broadcasts_done_;
        if (link_sent_[k].kind == Event::kDown) {
          cur_->failover_ms.push_back(ms_between(link_sched_us_[k], now));
          if (spans_.enabled()) {
            spans_.add("link.failover", link_sched_us_[k],
                       now - link_sched_us_[k], 0);
          }
        }
        lag_pending_.push_back(
            Lag{now, static_cast<int>((k + 1) * rows_per_broadcast_)});
      }
    }
  }
  if (u.id < 1 || static_cast<std::size_t>(u.id) > reqs_.size()) {
    fail("allocation for unknown demand " + std::to_string(u.id));
    return;
  }
  const auto index = static_cast<std::size_t>(u.id - 1);
  Request& q = reqs_[index];
  if (u.pair != q.demand.pairs[0].pair) {
    fail("allocation row for demand " + std::to_string(u.id) +
         " names pair " + std::to_string(u.pair));
    return;
  }
  Row& row = rows_[index];
  row.mbps = u.tunnel_mbps;
  row.backup = u.backup;
  row.seen = true;
  if (!u.backup && q.live_us == 0) {
    q.live_us = now;
    if (q.replies == 1 && q.status == AdmissionStatus::kAdmitted) {
      --live_pending_;
    }
    if (spans_.enabled()) {
      spans_.add("demand.alloc_live", q.sched_us, now - q.sched_us,
                 static_cast<std::uint64_t>(q.demand.id));
    }
  }
}

void LiveStack::send_withdraw(int req) {
  Request& q = reqs_[static_cast<std::size_t>(req)];
  q.withdraw_sent = true;
  if (cur_ != nullptr) ++cur_->withdraws;
  op_log_.push_back(ReplayOp{Event::kWithdraw, {req}, -1});
  conns_[static_cast<std::size_t>(q.tenant)].socket.write_all(
      bate::encode_frame(
          bate::encode_message(bate::WithdrawDemandMsg{q.demand.id})));
}

PhaseResult LiveStack::run(const std::vector<Event>& events,
                           bool track_failover, bool shed_ok) {
  PhaseResult res;
  cur_ = &res;
  shed_ok_ = shed_ok;
  scrapes_pending_ = 0;
  scrape_sent_.clear();
  track_ = false;
  frames_seen_ = 0;
  broadcasts_done_ = 0;
  link_sent_.clear();
  link_sched_us_.clear();
  lag_pending_.clear();
  lag_next_ = 0;
  broker_base_.clear();
  if (track_failover) {
    quiesce();
    track_ = true;
    if (outstanding_ != 0 || live_pending_ != 0) {
      fail("failover phase started with submits in flight");
    }
    rows_per_broadcast_ = live_admitted().size();
    if (rows_per_broadcast_ == 0) {
      fail("failover phase without admitted demands");
      track_ = false;
    }
    for (auto& b : brokers_) broker_base_.push_back(b->updates_received());
    loaded_ = link_load();
  }

  const std::int64_t t0 = now_us() + 2000;
  for (const Event& e : events) {
    if (e.kind == Event::kSubmit) {
      reqs_[static_cast<std::size_t>(e.ref)].sched_us = t0 + e.t_us;
    }
  }
  const std::int64_t last_t = events.empty() ? 0 : events.back().t_us;
  const std::int64_t deadline = t0 + last_t + kDrainTimeoutUs;
  const double cpu0 = cpu_us();
  const double client_cpu0 = thread_cpu_us();

  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) pfds.push_back(pollfd{c.fd, POLLIN, 0});
  std::vector<bate::FrameBatch> out(static_cast<std::size_t>(cfg_.tenants));
  std::size_t next = 0;
  long deferred = 0;

  std::int64_t now = now_us();
  while (true) {
    if (next < events.size() && t0 + events[next].t_us <= now) {
      const std::int64_t t_enc = now;
      ReplayOp batch{Event::kSubmit, {}, -1};
      while (next < events.size() && t0 + events[next].t_us <= now) {
        const Event& e = events[next++];
        const std::int64_t sched = t0 + e.t_us;
        res.late_ms.push_back(ms_between(sched, now));
        switch (e.kind) {
          case Event::kSubmit: {
            Request& q = reqs_[static_cast<std::size_t>(e.ref)];
            Conn& c = conns_[static_cast<std::size_t>(q.tenant)];
            q.request_id = c.next_rid++;
            c.rid_to_req.push_back(e.ref);
            bate::FrameContext ctx;
            if (trace_frames_) {
              ctx.trace_id = static_cast<std::uint64_t>(q.demand.id);
              ctx.span_id = static_cast<std::uint64_t>(q.demand.id);
            }
            out[static_cast<std::size_t>(q.tenant)].add(
                bate::encode_message(
                    bate::SubmitDemandMsg{q.demand, q.request_id}),
                ctx);
            ++outstanding_;
            ++res.submits;
            batch.reqs.push_back(e.ref);
            break;
          }
          case Event::kWithdraw: {
            Request& q = reqs_[static_cast<std::size_t>(e.ref)];
            if (q.replies == 0) {
              q.withdraw_deferred = true;  // sent once its verdict lands
              ++deferred;
            } else if (q.status == AdmissionStatus::kAdmitted &&
                       !q.withdraw_sent) {
              q.withdraw_sent = true;
              ++res.withdraws;
              if (!batch.reqs.empty()) op_log_.push_back(std::move(batch));
              batch = ReplayOp{Event::kSubmit, {}, -1};
              op_log_.push_back(ReplayOp{Event::kWithdraw, {e.ref}, -1});
              out[static_cast<std::size_t>(q.tenant)].add(bate::encode_message(
                  bate::WithdrawDemandMsg{q.demand.id}));
            }
            break;
          }
          case Event::kDown:
          case Event::kUp: {
            const bool up = e.kind == Event::kUp;
            {
              ScopedSpan span(spans_, "system.report_link");
              brokers_[0]->report_link(static_cast<LinkId>(e.ref), up);
            }
            op_log_.push_back(ReplayOp{e.kind, {}, e.ref});
            if (up) {
              ++res.ups;
            } else {
              ++res.downs;
              if (track_ &&
                  loaded_[static_cast<std::size_t>(e.ref)] > kUnloadedMbps) {
                ++res.loaded_downs;
              }
            }
            if (track_) {
              link_sent_.push_back(e);
              link_sched_us_.push_back(sched);
            }
            break;
          }
          case Event::kScrape:
            out[0].add(bate::encode_message(bate::SloRequestMsg{"json", ""}));
            scrape_sent_.push_back(now);
            ++scrapes_pending_;
            break;
        }
      }
      if (!batch.reqs.empty()) op_log_.push_back(std::move(batch));
      for (std::size_t t = 0; t < out.size(); ++t) {
        if (out[t].empty()) continue;
        conns_[t].socket.write_all(out[t].bytes());
        out[t].clear();
      }
      if (spans_.enabled()) {
        spans_.add("net.encode_send", t_enc, now_us() - t_enc, 0);
      }
      res.backlog_max = std::max(res.backlog_max, outstanding_);
      if (next == events.size()) res.outstanding_at_end = outstanding_;
      now = now_us();
    }

    // Brokers catch up with a completed broadcast (apply lag).
    while (lag_next_ < lag_pending_.size()) {
      const Lag& lag = lag_pending_[lag_next_];
      bool caught_up = true;
      for (std::size_t b = 0; b < brokers_.size(); ++b) {
        if (brokers_[b]->updates_received() - broker_base_[b] < lag.expect) {
          caught_up = false;
          break;
        }
      }
      if (!caught_up) break;
      res.apply_lag_ms.push_back(ms_between(lag.complete_us, now));
      ++lag_next_;
    }

    if (next == events.size()) {
      long still_deferred = 0;
      if (deferred > 0) {
        for (const Event& e : events) {
          if (e.kind == Event::kWithdraw &&
              reqs_[static_cast<std::size_t>(e.ref)].withdraw_deferred) {
            ++still_deferred;
          }
        }
        deferred = still_deferred;
      }
      const bool failover_done =
          !track_ || broadcasts_done_ == link_sent_.size();
      if (outstanding_ == 0 && live_pending_ == 0 && scrapes_pending_ == 0 &&
          deferred == 0 && failover_done &&
          lag_next_ == lag_pending_.size()) {
        break;
      }
      if (now > deadline) {
        fail("phase did not drain: " + std::to_string(outstanding_) +
             " verdicts, " + std::to_string(live_pending_) +
             " allocations, " + std::to_string(scrapes_pending_) +
             " scrapes, " +
             std::to_string(link_sent_.size() - broadcasts_done_) +
             " backup tables missing");
        break;
      }
    }

    std::int64_t wait_us =
        next < events.size() ? t0 + events[next].t_us - now : 5000;
    if (lag_next_ < lag_pending_.size()) {
      wait_us = std::min<std::int64_t>(wait_us, 100);
    }
    wait_us = std::max<std::int64_t>(wait_us, 0);
    const timespec ts{static_cast<time_t>(wait_us / 1'000'000),
                      static_cast<long>((wait_us % 1'000'000) * 1000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    now = now_us();
    if (ready > 0) {
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          drain(static_cast<int>(i), now);
        }
      }
      now = now_us();
    }
  }

  res.cpu_us = cpu_us() - cpu0;
  res.client_cpu_us = thread_cpu_us() - client_cpu0;
  res.wall_s = static_cast<double>(now_us() - t0) / 1e6;
  for (const Event& e : events) {
    if (e.kind != Event::kSubmit) continue;
    const Request& q = reqs_[static_cast<std::size_t>(e.ref)];
    if (q.replies != 1) continue;
    if (q.status == AdmissionStatus::kAdmitted && q.live_us == 0) {
      fail("demand " + std::to_string(q.demand.id) +
           " admitted but never allocated");
      continue;
    }
    if (!q.timed) continue;
    if (q.status == AdmissionStatus::kAdmitted ||
        q.status == AdmissionStatus::kRejected) {
      res.admit_ms.push_back(ms_between(q.sched_us, q.reply_us));
    }
    if (q.status == AdmissionStatus::kAdmitted) {
      res.live_ms.push_back(ms_between(q.sched_us, q.live_us));
    }
  }
  if (track_ && broadcasts_done_ != link_sent_.size()) {
    fail("missing backup tables for " +
         std::to_string(link_sent_.size() - broadcasts_done_) +
         " link reports");
  }
  cur_ = nullptr;
  track_ = false;
  shed_ok_ = false;
  return res;
}

std::string LiveStack::blocking_request(const bate::Message& msg,
                                        std::int64_t* rtt, int conns) {
  bodies_pending_ = conns;
  last_body_.clear();
  const std::int64_t t0 = now_us();
  const std::vector<std::uint8_t> frame =
      bate::encode_frame(bate::encode_message(msg));
  for (int c = 0; c < conns; ++c) {
    conns_[static_cast<std::size_t>(c)].socket.write_all(frame);
  }
  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) pfds.push_back(pollfd{c.fd, POLLIN, 0});
  while (bodies_pending_ > 0) {
    if (now_us() - t0 > kDrainTimeoutUs) {
      throw std::runtime_error("scrape timed out");
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 10);
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain(static_cast<int>(i), now_us());
      }
    }
  }
  if (rtt != nullptr) *rtt = now_us() - t0;
  want_stats_ = want_slo_ = false;
  return std::move(last_body_);
}

void LiveStack::quiesce() {
  // The controller handles each connection's frames in order and writes a
  // withdraw's broadcast before it reads the next frame, so a stats round
  // trip on every tenant connection orders after all of their work.
  want_stats_ = true;
  blocking_request(bate::StatsRequestMsg{"prometheus"}, nullptr,
                   cfg_.tenants);
  drain(cfg_.tenants, now_us());
  // Brokers apply on their own threads: wait until their counts settle.
  std::vector<int> last;
  for (int stable = 0, round = 0; stable < 4 && round < 400; ++round) {
    std::vector<int> counts;
    for (auto& b : brokers_) counts.push_back(b->updates_received());
    stable = counts == last ? stable + 1 : 0;
    last = std::move(counts);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string LiveStack::scrape_stats() {
  want_stats_ = true;
  return blocking_request(bate::StatsRequestMsg{"json"}, nullptr);
}

std::string LiveStack::scrape_slo(double* ms) {
  want_slo_ = true;
  std::int64_t rtt = 0;
  std::string body = blocking_request(bate::SloRequestMsg{"json", ""}, &rtt);
  if (ms != nullptr) *ms = static_cast<double>(rtt) / 1000.0;
  return body;
}

std::vector<double> LiveStack::link_load() const {
  std::vector<double> load(static_cast<std::size_t>(topo_->link_count()), 0.0);
  for (const int i : live_admitted()) {
    const auto at = static_cast<std::size_t>(i);
    const Row& row = rows_[at];
    const auto& tunnels = catalog_->tunnels(reqs_[at].demand.pairs[0].pair);
    for (std::size_t t = 0; t < std::min(row.mbps.size(), tunnels.size());
         ++t) {
      for (const LinkId l : tunnels[t].links) {
        load[static_cast<std::size_t>(l)] += row.mbps[t];
      }
    }
  }
  return load;
}

void LiveStack::check_final_table() {
  for (const int i : live_admitted()) {
    const Request& q = reqs_[static_cast<std::size_t>(i)];
    const Row& row = rows_[static_cast<std::size_t>(i)];
    if (!row.seen || row.backup) {
      fail("demand " + std::to_string(q.demand.id) +
           " has no primary row in the final table");
      continue;
    }
    const auto& tunnels = catalog_->tunnels(q.demand.pairs[0].pair);
    if (row.mbps.size() != tunnels.size()) {
      fail("demand " + std::to_string(q.demand.id) + " row has " +
           std::to_string(row.mbps.size()) + " tunnels, catalog " +
           std::to_string(tunnels.size()));
      continue;
    }
    double total = 0.0;
    for (std::size_t t = 0; t < tunnels.size(); ++t) total += row.mbps[t];
    const double want = q.demand.pairs[0].mbps;
    if (total < want * (1.0 - 1e-6) - 1e-9) {
      fail("demand " + std::to_string(q.demand.id) + " carries " +
           std::to_string(total) + " of " + std::to_string(want) + " Mbps");
    }
  }
  const std::vector<double> load = link_load();
  for (int l = 0; l < topo_->link_count(); ++l) {
    const double cap = topo_->link(l).capacity;
    if (load[static_cast<std::size_t>(l)] > cap * (1.0 + 1e-6) + 1e-6) {
      fail("link " + std::to_string(l) + " carries " +
           std::to_string(load[static_cast<std::size_t>(l)]) + " Mbps over " +
           std::to_string(cap));
    }
  }
}

}  // namespace perfbench
