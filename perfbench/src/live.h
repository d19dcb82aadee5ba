// A live BATE stack in one process — Controller + real Brokers — driven over
// loopback TCP in an open loop from the calling thread.
//
// The client owns the tenant connections (Hello{role="user"}) and one
// observer connection that introduces itself as a broker
// (Hello{role="broker"}) so it receives every AllocationUpdate the real
// brokers receive, timestamped on arrival. Events (submits, withdraws, link
// reports, SLO scrapes) are sent at their scheduled times and every latency
// is measured from the scheduled time, so a stall delays the clock of every
// request queued behind it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/scheduling.h"
#include "routing/tunnels.h"
#include "system/broker.h"
#include "system/controller.h"
#include "system/protocol.h"
#include "topology/graph.h"
#include "workload/demand.h"

namespace perfbench {

using bate::AdmissionStatus;
using bate::Demand;
using bate::DemandId;
using bate::LinkId;

struct StackConfig {
  bate::Topology (*topology)() = nullptr;
  int tunnels_per_pair = 4;
  bate::SchedulerConfig scheduler;
  bate::ControllerConfig controller;
  int tenants = 2;
  int brokers = 2;
};

/// Set-up cost of one stack, split by layer.
struct SetupTimes {
  double catalog_ms = 0.0;    // topology + tunnel catalog (routing)
  double scheduler_ms = 0.0;  // Controller construction: scheduler + planner
  double start_ms = 0.0;      // loop/broker start until every peer connected
  double cpu_ms = 0.0;        // process CPU over the whole set-up
  double total_s() const {
    return (catalog_ms + scheduler_ms + start_ms) / 1000.0;
  }
};

/// One scheduled event. `ref` is a submit index (kSubmit, kWithdraw) or a
/// link id (kDown, kUp).
struct Event {
  enum Kind : std::uint8_t { kSubmit, kWithdraw, kDown, kUp, kScrape };
  std::int64_t t_us = 0;  // offset from the phase start
  Kind kind = kSubmit;
  int ref = 0;
};

/// One submit, client side.
struct Request {
  Demand demand;
  int tenant = 0;
  bool timed = true;  // counted in the phase's latency samples
  std::uint64_t request_id = 0;
  std::int64_t sched_us = 0;
  std::int64_t reply_us = 0;
  std::int64_t live_us = 0;  // observer saw the first primary row
  int replies = 0;
  AdmissionStatus status = AdmissionStatus::kRejected;
  bool withdraw_sent = false;
  bool withdraw_deferred = false;
};

/// One step of the recorded event order, replayed straight through the
/// core layers by the traced run: a send round's submits (one candidate
/// batch), a withdraw, or a link report.
struct ReplayOp {
  Event::Kind kind = Event::kSubmit;
  std::vector<int> reqs;  // kSubmit: request indices; kWithdraw: one
  int link = -1;
};

struct PhaseResult {
  std::vector<double> admit_ms;     // scheduled submit -> verdict
  std::vector<double> live_ms;      // scheduled submit -> first primary row
  std::vector<double> failover_ms;  // scheduled down report -> full table
  std::vector<double> apply_lag_ms; // observer complete -> brokers caught up
  std::vector<double> late_ms;      // generator lateness per sent event
  std::vector<double> scrape_ms;    // SLO scrape round trip
  double scrape_bytes = 0.0;        // summed SLO payload bytes
  long submits = 0, admitted = 0, rejected = 0, shed = 0;
  long withdraws = 0, downs = 0, ups = 0;
  long loaded_downs = 0;  // down reports of links the primary table uses
  long backlog_max = 0;  // max submits outstanding (sent, no verdict yet)
  long replies = 0, reply_reads = 0;
  double wall_s = 0.0;     // first scheduled event -> phase drained
  double cpu_us = 0.0;     // process CPU over the phase
  double client_cpu_us = 0.0;  // of which the client thread
  long outstanding_at_end = 0; // submits without verdict at the last event
};

class LiveStack {
 public:
  /// Builds topology, catalog and controller, starts the loop and brokers,
  /// connects the client's tenants and observer and waits until the
  /// controller counts every peer. Times each step into `setup`.
  LiveStack(const StackConfig& cfg, SpanLog& spans, bool trace_frames);
  ~LiveStack();
  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  SetupTimes setup;

  const bate::Topology& topo() const { return *topo_; }
  const bate::TunnelCatalog& catalog() const { return *catalog_; }
  const StackConfig& config() const { return cfg_; }

  /// Registers a submit; the demand id becomes index + 1. Returns the index.
  int add_request(Demand d, int tenant, bool timed);
  const std::vector<Request>& requests() const { return reqs_; }

  /// Runs one open-loop phase to completion (every verdict, allocation,
  /// failover table and scrape accounted for, or the drain deadline hit).
  /// `track_failover` maps each full broadcast the observer receives to the
  /// link report that caused it (backup rows for a down report, primary rows
  /// for an up report); it requires that no submit is in flight.
  /// `shed_ok` counts sheds without failing the run (ladder overload steps).
  PhaseResult run(const std::vector<Event>& events, bool track_failover,
                  bool shed_ok = false);

  /// Event order of every phase run so far, for the replay pass.
  const std::vector<ReplayOp>& op_log() const { return op_log_; }

  /// Blocking scrapes over tenant 0 (between phases only).
  std::string scrape_stats();
  std::string scrape_slo(double* ms = nullptr);

  /// Admitted and not withdrawn, per the client's own bookkeeping.
  std::vector<int> live_admitted() const;

  /// Failures recorded so far (missing/duplicate/mismatched verdicts,
  /// sheds, missing allocations or backup tables, protocol errors).
  long failures() const { return static_cast<long>(errors_.size()); }
  const std::vector<std::string>& errors() const { return errors_; }
  void fail(std::string what);

  /// Checks the observer's allocation table: every live admitted demand
  /// carries full bandwidth on primary rows and the table fits every link.
  void check_final_table();

  /// Per-link load of the observer's rows of live admitted demands.
  std::vector<double> link_load() const;

  /// Sockets the client thread serves (tenants + observer).
  int client_connections() const {
    return static_cast<int>(conns_.size());
  }

 private:
  struct Conn {
    int fd = -1;
    bate::Socket socket;
    std::vector<std::uint8_t> inbuf;
    std::size_t inpos = 0;
    std::uint64_t next_rid = 1;
    std::vector<int> rid_to_req;  // request_id - 1 -> request index
  };
  struct Row {
    std::vector<double> mbps;
    bool backup = false;
    bool seen = false;
  };

  void connect_all();
  void wait_peers(int expected);
  /// Reads whatever is available on `c` and handles complete frames.
  void drain(int ci, std::int64_t now);
  void handle(int ci, const bate::Message& msg, std::int64_t now);
  void on_reply(int ci, const bate::AdmissionReplyMsg& r, std::int64_t now);
  void on_update(const bate::AllocationUpdateMsg& u, std::int64_t now);
  void send_withdraw(int req);
  /// Sends `msg` on the first `conns` tenant connections and waits for a
  /// reply on each, draining every connection meanwhile.
  std::string blocking_request(const bate::Message& msg, std::int64_t* rtt,
                               int conns = 1);
  /// Waits until the controller has finished every frame sent so far and
  /// the brokers have applied its broadcasts.
  void quiesce();

  StackConfig cfg_;
  SpanLog& spans_;
  bool trace_frames_;
  std::unique_ptr<bate::Topology> topo_;
  std::unique_ptr<bate::TunnelCatalog> catalog_;
  std::unique_ptr<bate::Controller> controller_;
  std::vector<std::unique_ptr<bate::Broker>> brokers_;
  std::vector<Conn> conns_;  // tenants, then the observer (last)
  std::vector<Request> reqs_;
  std::vector<Row> rows_;    // observer table, by request index
  std::vector<std::string> errors_;
  std::vector<ReplayOp> op_log_;
  bool shed_ok_ = false;

  // Per-phase state touched by the frame handlers.
  PhaseResult* cur_ = nullptr;
  long outstanding_ = 0;     // submits sent without verdict
  long live_pending_ = 0;    // admitted verdicts without a primary row
  long scrapes_pending_ = 0;
  std::vector<std::int64_t> scrape_sent_;
  std::string last_body_;    // blocking scrape reply body
  bool want_stats_ = false, want_slo_ = false;
  int bodies_pending_ = 0;
  // Failover tracking: link events in send order and observer frames since
  // the phase started.
  bool track_ = false;
  std::size_t rows_per_broadcast_ = 0;
  std::size_t frames_seen_ = 0;
  std::vector<Event> link_sent_;
  std::vector<std::int64_t> link_sched_us_;
  std::size_t broadcasts_done_ = 0;
  struct Lag {
    std::int64_t complete_us;
    int expect;  // per-broker update count that covers this broadcast
  };
  std::vector<double> loaded_;  // link load when the phase started
  std::vector<int> broker_base_;
  std::vector<Lag> lag_pending_;
  std::size_t lag_next_ = 0;
};

}  // namespace perfbench
