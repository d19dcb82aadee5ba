// Open-loop end-to-end benchmark of the live BATE controller.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--chrome FILE]
//
// One process per workload run. The stack (Controller + one Broker, plus
// the client's tenant and observer connections) runs in this process and is
// driven over loopback TCP by a single thread on a seeded open-loop
// schedule. Every workload runs the same phases on a fresh stack several
// times within --seconds, weighted differently per workload:
//
//   admission  timed submits at the workload's nominal rate
//              (admit_*, alloc_live_*, accept_ratio, cpu_us_per_op)
//   failover   overlapping link down/up reports from the real broker
//              (failover_*; cpu_us_per_op on flap_failover)
//   ledger     kSloRequest scrape after the flaps (sla_met_ratio)
//
// Each end-to-end figure is the median over the repetitions. The outputs
// are checked as they arrive (one verdict per submit with matching ids, an
// allocation for every admission, a complete backup table per down report
// and a primary one per up report), after each failover phase (with backup
// precompute on, a plan hit for every down report of a loaded link) and at
// the end of each repetition (the observer's table carries every live
// demand in full and fits every link; on flap_failover the ledger replays
// within 1e-9).
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// runs the workload untraced and then traced, replays the traced run's
// event order through the layers, climbs the capacity ladder, and reports
// the per-layer metrics (the Chrome trace goes to --chrome). Exits non-zero on
// any failed check, and without a result when the client fell behind its
// schedule.
#include <dirent.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "json_mini.h"
#include "live.h"
#include "obs/availability.h"
#include "obs/metrics.h"
#include "replay.h"
#include "topology/catalog.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/demand_gen.h"
#include "workload/sla.h"

namespace perfbench {
namespace {

/// Generator lateness beyond which the client fell behind its own schedule
/// and the run's latencies are not valid: the 90th percentile over the
/// timed phases against this share of the workload's latency limit. (Its
/// 99th percentile is OS wake-up jitter of a millisecond or two and is
/// reported as system.gen_late_ms.p99.)
constexpr double kMaxLateShare = 0.1;

/// Throwaway stacks built before each repetition and after the last one,
/// whose set-ups join the repetitions' in the setup_s median. Spreading them
/// over the run samples the machine at several moments, not one.
constexpr int kSetupProbes = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string chrome;
};

// --- workloads ---------------------------------------------------------------

enum class Shape { kChurn, kPaper, kFlap };

struct Workload {
  const char* name;
  Shape shape;
  StackConfig stack;
  double nominal_rate;    // submits/s in the admission phase
  double limit_ms;        // admit_p99 limit of the ladder
  double ladder_start;    // first ladder rate (submits/s)
  double ladder_growth;   // rate factor per step
  int ladder_steps;
  double ladder_step_s;   // seconds per rung
  int warm_demands;       // untimed submits before the failover phase
  int flap_downs;         // down reports in the failover phase
  double flap_gap_ms;     // mean spacing of down reports
  double flap_dwell_ms;   // mean time a link stays down
  int flap_max_down;      // links down at once
  double mean_hold_s;     // paper_b4: exponential holding time
  double admit_s;         // flap_failover: admission phase
  int reps;               // fresh-stack repetitions sharing --seconds
};

bate::ControllerConfig churn_controller() {
  // The high-churn configuration: greedy admissions delta-broadcast, no
  // scheduling round or backup precompute per batch.
  bate::ControllerConfig c;
  c.tick_ms = 1;
  c.max_queue = 1 << 15;
  c.reschedule_after_batch = false;
  c.precompute_backup = false;
  return c;
}

bate::ControllerConfig flap_controller() {
  // The SLO-chaos configuration: greedy admissions, backup plans kept
  // current, and a ledger transition log deep enough that the crosscheck
  // replays every demand's full history through a long flap campaign.
  bate::ControllerConfig c;
  c.tick_ms = 1;
  c.max_queue = 1 << 15;
  c.reschedule_after_batch = false;
  c.slo_max_transitions = 4096;
  return c;
}

Workload make_workload(const std::string& name) {
  Workload w{};
  w.name = nullptr;
  if (name == "churn_small") {
    w.name = "churn_small";
    w.shape = Shape::kChurn;
    w.stack.topology = bate::testbed6;
    w.stack.controller = churn_controller();
    w.nominal_rate = 3000.0;
    w.reps = 4;
    w.limit_ms = 25.0;
    w.ladder_start = 4000.0;
    w.ladder_growth = 1.25;
    w.ladder_steps = 8;
    w.ladder_step_s = 1.0;
    w.warm_demands = 1000;
    w.flap_downs = 100;
    w.flap_gap_ms = 20.0;
    w.flap_dwell_ms = 20.0;
    w.flap_max_down = 2;
  } else if (name == "paper_b4") {
    w.name = "paper_b4";
    w.shape = Shape::kPaper;
    w.stack.topology = bate::b4;
    w.stack.scheduler.max_failures = 3;  // the paper's y=3 on B4
    w.nominal_rate = 40.0;
    w.mean_hold_s = 0.5;
    w.reps = 4;
    w.limit_ms = 250.0;
    w.ladder_start = 40.0;
    w.ladder_growth = 1.25;
    w.ladder_steps = 6;
    w.ladder_step_s = 2.0;
    w.warm_demands = 0;
    w.flap_downs = 100;
    w.flap_gap_ms = 10.0;
    w.flap_dwell_ms = 20.0;
    w.flap_max_down = 2;
  } else if (name == "flap_failover") {
    w.name = "flap_failover";
    w.shape = Shape::kFlap;
    w.stack.topology = bate::testbed6;
    w.stack.controller = flap_controller();
    w.nominal_rate = 30.0;
    w.admit_s = 6.0;
    w.reps = 2;
    w.limit_ms = 100.0;
    w.ladder_start = 30.0;
    w.ladder_growth = 1.6;
    w.ladder_steps = 10;
    w.ladder_step_s = 1.0;
    w.warm_demands = 1500;
    w.flap_downs = 100;
    w.flap_gap_ms = 0.0;  // spread over what the repetition leaves
    w.flap_dwell_ms = 40.0;
    w.flap_max_down = 2;
  }
  return w;
}

/// Tiny churn demand: one pair, 0.01 Mbps, 90% best-effort / 10% beta 0.9.
Demand churn_demand(bate::Rng& rng, int pairs) {
  Demand d;
  d.pairs = {{rng.uniform_int(0, pairs - 1), 0.01}};
  d.availability_target = rng.bernoulli(0.1) ? 0.9 : 0.0;
  d.charge = 0.01;
  d.refund_fraction = 0.1;
  d.duration_minutes = 10.0;
  return d;
}

/// SLO-chaos demand: one pair, 0.1 Mbps, three beta tiers.
Demand tier_demand(bate::Rng& rng, int pairs) {
  static const double kTiers[3] = {0.99, 0.9, 0.0};
  Demand d;
  d.pairs = {{rng.uniform_int(0, pairs - 1), 0.1}};
  d.availability_target = kTiers[rng.uniform_int(0, 2)];
  d.charge = 0.01;
  d.refund_fraction = 0.1;
  d.duration_minutes = 10.0;
  return d;
}

std::int64_t to_us(double s) { return static_cast<std::int64_t>(s * 1e6); }

void sort_events(std::vector<Event>& ev) {
  std::stable_sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    return a.t_us < b.t_us;
  });
}

/// Poisson submits of `make` demands at `rate` for `dur_s`, round-robin
/// over the tenants.
std::vector<Event> poisson_submits(
    LiveStack& live, bate::Rng& rng, double rate, double dur_s, bool timed,
    const std::function<Demand(bate::Rng&)>& make) {
  std::vector<Event> ev;
  const int tenants = live.config().tenants;
  double t = rng.exponential_mean(1.0 / rate);
  int k = 0;
  while (t < dur_s) {
    const int ref = live.add_request(make(rng), k++ % tenants, timed);
    ev.push_back(Event{to_us(t), Event::kSubmit, ref});
    t += rng.exponential_mean(1.0 / rate);
  }
  return ev;
}

/// Stratified sampling over the generated stream: within each consecutive
/// block, the pairs, the beta targets, and the bandwidth and holding-time
/// quantiles are seeded permutations of evenly spaced strata. Marginals are
/// the generator's (uniform pair, uniform beta, uniform bandwidth,
/// exponential holding); what goes is the run-to-run scatter in how many
/// expensive demands one window happens to draw.
void stratify(std::vector<Demand>& demands, int pairs,
              const bate::WorkloadConfig& wc, std::uint64_t seed) {
  bate::Rng rng(seed ^ 0xA5A5A5A5ULL);
  const auto strata = [&](std::size_t n) {
    std::vector<int> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<int>(i);
    std::shuffle(p.begin(), p.end(), rng.engine());
    return p;
  };
  const std::size_t betas = wc.availability_targets.size();
  constexpr std::size_t kBlock = 8;
  std::vector<int> pair_perm, beta_perm, bw_perm, hold_perm;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const std::size_t np = static_cast<std::size_t>(pairs);
    if (i % np == 0) pair_perm = strata(np);
    if (i % betas == 0) beta_perm = strata(betas);
    if (i % kBlock == 0) {
      bw_perm = strata(kBlock);
      hold_perm = strata(kBlock);
    }
    Demand& d = demands[i];
    d.pairs[0].pair = pair_perm[i % np];
    d.availability_target =
        wc.availability_targets[static_cast<std::size_t>(
            beta_perm[i % betas])];
    const double u_bw =
        (bw_perm[i % kBlock] + rng.uniform(0.0, 1.0)) / kBlock;
    d.pairs[0].mbps = wc.bw_min_mbps + u_bw * (wc.bw_max_mbps - wc.bw_min_mbps);
    d.charge = wc.unit_price_per_mbps * d.pairs[0].mbps;
    const double u_hold =
        (hold_perm[i % kBlock] + rng.uniform(0.0, 1.0)) / kBlock;
    d.duration_minutes =
        -wc.mean_duration_min * std::log(1.0 - u_hold * 0.999999);
  }
}

/// The paper's simulation mix on the live clock (one simulated minute =
/// one second): Poisson arrivals, exponential holding, uniform bandwidth,
/// the simulation beta set; departures become WithdrawDemand events when
/// they fall inside the window. With `populate`, the stationary population
/// (~rate x hold demands, residual holding again exponential) is submitted
/// untimed over the first second and the timed arrivals follow it.
std::vector<Event> paper_events(LiveStack& live, std::uint64_t seed,
                                double rate, double hold_s, double dur_s,
                                bool populate) {
  std::vector<Event> ev;
  int k = 0;
  const int tenants = live.config().tenants;
  const auto add = [&](double per_s, double from_s, double to_s,
                       std::uint64_t s, bool timed) {
    bate::WorkloadConfig wc;
    wc.arrival_rate_per_min = per_s;
    wc.mean_duration_min = hold_s;
    wc.horizon_min = to_s - from_s;
    wc.availability_targets = bate::simulation_target_set();
    wc.seed = s;
    std::vector<Demand> demands = bate::generate_demands(live.catalog(), wc);
    stratify(demands, live.catalog().pair_count(), wc, s);
    for (Demand& d : demands) {
      const double at = from_s + d.arrival_minute;
      const double end = from_s + d.end_minute();
      const int ref = live.add_request(std::move(d), k++ % tenants, timed);
      ev.push_back(Event{to_us(at), Event::kSubmit, ref});
      if (end < dur_s) ev.push_back(Event{to_us(end), Event::kWithdraw, ref});
    }
  };
  const double warm_s = populate ? 1.0 : 0.0;
  if (populate) add(rate * hold_s, 0.0, warm_s, seed ^ 0x5DEECE66DULL, false);
  add(rate, warm_s, dur_s, seed, true);
  sort_events(ev);
  return ev;
}

/// Overlapping link flaps: a down report every ~gap, each link staying down
/// ~dwell, at most `max_down` links down at once; every link is back up at
/// the end. Optional SLO scrapes every `scrape_ms`.
std::vector<Event> flap_events(bate::Rng& rng, int links, int downs,
                               double gap_ms, double dwell_ms, int max_down,
                               double scrape_ms) {
  std::vector<Event> ev;
  std::vector<std::pair<double, int>> down;  // (up time, link)
  const auto raise_until = [&](double t) {
    std::sort(down.begin(), down.end());
    while (!down.empty() && down.front().first <= t) {
      ev.push_back(Event{to_us(down.front().first / 1000.0), Event::kUp,
                         down.front().second});
      down.erase(down.begin());
    }
  };
  double t = 0.0;
  for (int i = 0; i < downs; ++i) {
    t += gap_ms * rng.uniform(0.5, 1.5);
    raise_until(t);
    if (static_cast<int>(down.size()) >= max_down) {
      ev.push_back(Event{to_us(t / 1000.0), Event::kUp, down.front().second});
      down.erase(down.begin());
    }
    int link = 0;
    do {
      link = rng.uniform_int(0, links - 1);
    } while (std::any_of(down.begin(), down.end(),
                         [&](const auto& d) { return d.second == link; }));
    ev.push_back(Event{to_us(t / 1000.0), Event::kDown, link});
    down.emplace_back(t + dwell_ms * rng.uniform(0.5, 1.5), link);
  }
  raise_until(1e300);
  if (scrape_ms > 0.0 && !ev.empty()) {
    const double end_ms = static_cast<double>(ev.back().t_us) / 1000.0;
    for (double s = scrape_ms; s < end_ms; s += scrape_ms) {
      ev.push_back(Event{to_us(s / 1000.0), Event::kScrape, 0});
    }
  }
  sort_events(ev);
  return ev;
}

// --- stats -------------------------------------------------------------------

bate::obs::HistogramSnapshot histogram(const bate::json::JsonValue& root,
                                       const char* name) {
  bate::obs::HistogramSnapshot h;
  const bate::json::JsonValue* hs = root.find("histograms");
  const bate::json::JsonValue* v = hs != nullptr ? hs->find(name) : nullptr;
  if (v == nullptr) return h;
  h.count = static_cast<std::int64_t>(v->find("count")->number);
  h.sum = static_cast<std::int64_t>(v->find("sum")->number);
  for (const bate::json::JsonValue& b : v->find("buckets")->array) {
    bate::obs::HistogramSnapshot::Bucket bucket;
    const bate::json::JsonValue* le = b.find("le");
    bucket.infinite = le->kind == bate::json::JsonValue::Kind::kString;
    bucket.upper = bucket.infinite ? 0 : static_cast<std::int64_t>(le->number);
    bucket.cumulative =
        static_cast<std::int64_t>(b.find("cumulative")->number);
    h.buckets.push_back(bucket);
  }
  return h;
}

double counter(const bate::json::JsonValue& root, const char* name) {
  const bate::json::JsonValue* cs = root.find("counters");
  const bate::json::JsonValue* v = cs != nullptr ? cs->find(name) : nullptr;
  return v != nullptr ? v->number : 0.0;
}

bate::json::JsonValue parse_stats(const std::string& body) {
  try {
    return bate::json::JsonParser(body).parse();
  } catch (const std::exception&) {
    return {};
  }
}

/// With backup precompute on, every down report of a link the primary
/// table uses must have found a precomputed plan, so its broadcast was the
/// plan's table and not the primary table flagged as backup; only a link
/// that carries nothing (whose failure changes nothing) may miss.
/// bate_recovery_plan_{hits,misses}_total count this stack's lookups.
void check_plans(LiveStack& live, const PhaseResult& p) {
  if (!live.config().controller.precompute_backup) return;
  const bate::json::JsonValue stats = parse_stats(live.scrape_stats());
  const double hits = counter(stats, "bate_recovery_plan_hits_total");
  const double misses = counter(stats, "bate_recovery_plan_misses_total");
  if (hits != static_cast<double>(p.loaded_downs) ||
      misses != static_cast<double>(p.downs - p.loaded_downs)) {
    live.fail("backup plan lookups: " + std::to_string(hits) + " hits, " +
              std::to_string(misses) + " misses; expected a hit for each of " +
              std::to_string(p.loaded_downs) + " down reports of loaded links "
              "and a miss for each of " +
              std::to_string(p.downs - p.loaded_downs) + " unloaded");
  }
}

// --- ledger ------------------------------------------------------------------

struct LedgerCheck {
  std::size_t rows = 0;
  double met_ratio = 0.0;
  double max_abs_err = 0.0;
};

/// Reads the SLO payload: share of ledger rows meeting their beta, and —
/// with `crosscheck` — replays every row's transition log through a fresh
/// obs::AvailabilityMeter (the simulator's arithmetic), which must agree
/// with the controller's own figure within 1e-9.
LedgerCheck read_ledger(const std::string& payload, bool crosscheck,
                        LiveStack& live) {
  LedgerCheck out;
  bate::json::JsonValue root;
  try {
    root = bate::json::JsonParser(payload).parse();
  } catch (const std::exception& e) {
    live.fail(std::string("SLO payload does not parse: ") + e.what());
    return out;
  }
  const bate::json::JsonValue* ledger = root.find("ledger");
  const bate::json::JsonValue* demands =
      ledger != nullptr ? ledger->find("demands") : nullptr;
  const bate::json::JsonValue* now =
      ledger != nullptr ? ledger->find("now_us") : nullptr;
  if (demands == nullptr || now == nullptr) {
    live.fail("SLO payload has no ledger demands");
    return out;
  }
  const auto num = [](const bate::json::JsonValue& o, const char* key) {
    const bate::json::JsonValue* v = o.find(key);
    return v != nullptr ? v->number : 0.0;
  };
  const auto now_us = static_cast<std::int64_t>(now->number);
  long met = 0;
  for (const bate::json::JsonValue& d : demands->array) {
    ++out.rows;
    const double avail = num(d, "availability");
    if (avail + 1e-12 >= num(d, "beta")) ++met;
    if (!crosscheck) continue;
    const std::string id =
        std::to_string(static_cast<long long>(num(d, "id")));
    if (num(d, "dropped_transitions") != 0.0) {
      live.fail("ledger transition log truncated for demand " + id);
      continue;
    }
    bate::obs::AvailabilityMeter meter;
    if (const bate::json::JsonValue* tr = d.find("transitions")) {
      for (const bate::json::JsonValue& t : tr->array) {
        const auto t_us = static_cast<std::int64_t>(num(t, "t_us"));
        const bate::json::JsonValue* st = t.find("state");
        const std::string s = st != nullptr ? st->str : "";
        if (s == "admitted") {
          meter.start(t_us, true);
        } else if (s == "degraded") {
          meter.set_satisfied(t_us, false);
        } else if (s == "recovered") {
          meter.set_satisfied(t_us, true);
        } else if (s == "withdrawn") {
          meter.finalize(t_us);
        }
      }
    }
    if (static_cast<double>(meter.active_us_at(now_us)) !=
            num(d, "active_us") ||
        static_cast<double>(meter.satisfied_us_at(now_us)) !=
            num(d, "satisfied_us")) {
      live.fail("ledger replay disagrees on active/satisfied time of demand " +
                id);
    }
    out.max_abs_err = std::max(
        out.max_abs_err, std::fabs(meter.availability_at(now_us) - avail));
  }
  out.met_ratio = out.rows > 0 ? static_cast<double>(met) /
                                     static_cast<double>(out.rows)
                               : 0.0;
  if (crosscheck) {
    if (out.max_abs_err > 1e-9) {
      live.fail("ledger crosscheck error " + std::to_string(out.max_abs_err) +
                " exceeds 1e-9");
    }
    if (out.rows < live.live_admitted().size()) {
      live.fail("ledger covers " + std::to_string(out.rows) + " of " +
                std::to_string(live.live_admitted().size()) +
                " admitted demands");
    }
  }
  return out;
}

// --- ladder ------------------------------------------------------------------

struct Ladder {
  double sustained = 0.0;
  long attempted = 0;
  std::vector<std::string> log;
};

/// Raises the open-loop rate step by step until a step misses the p99
/// limit, sheds, ends with a backlog the limit cannot absorb, or the
/// generator falls behind. Returns the highest passing rate, interpolated
/// toward the first failing one on the p99-vs-rate line.
Ladder run_ladder(LiveStack& live, const Workload& w, bate::Rng& rng,
                  double step_s, std::uint64_t seed) {
  Ladder out;
  double pass_rate = 0.0, pass_p99 = 0.0;
  for (int k = 0; k < w.ladder_steps; ++k) {
    const double rate = w.ladder_start * std::pow(w.ladder_growth, k);
    std::vector<Event> ev;
    const int pairs = live.catalog().pair_count();
    if (w.shape == Shape::kPaper) {
      ev = paper_events(live, seed * 1000003ULL + static_cast<std::uint64_t>(k),
                        rate, w.mean_hold_s, step_s, false);
    } else {
      ev = poisson_submits(live, rng, rate, step_s, true, [&](bate::Rng& r) {
        return w.shape == Shape::kChurn ? churn_demand(r, pairs)
                                        : tier_demand(r, pairs);
      });
    }
    const PhaseResult p = live.run(ev, false, /*shed_ok=*/true);
    out.attempted += p.submits + p.withdraws;
    const double p99 = quantile(p.admit_ms, 0.99);
    const double late = quantile(p.late_ms, 0.9);
    const double absorb = std::max(1.0, rate * w.limit_ms / 1000.0);
    const bool backlog_ok = static_cast<double>(p.outstanding_at_end) <= absorb;
    const double max_late = kMaxLateShare * w.limit_ms;
    const bool pass = !p.admit_ms.empty() && p99 <= w.limit_ms &&
                      p.shed == 0 && backlog_ok && late <= max_late;
    char line[200];
    std::snprintf(line, sizeof line,
                  "ladder %8.1f/s  p99 %9.3f ms  shed %ld  backlog %ld  "
                  "late_p90 %.3f ms  %s",
                  rate, p99, p.shed, p.outstanding_at_end, late,
                  pass ? "pass" : "FAIL");
    out.log.emplace_back(line);
    if (pass) {
      pass_rate = rate;
      pass_p99 = p99;
      continue;
    }
    if (pass_rate == 0.0) {
      // The first rung already fails: scale it down by the limit overrun.
      out.sustained = rate * std::min(1.0, w.limit_ms / std::max(p99, 1e-9));
      return out;
    }
    double frac = 0.0;
    if (p.shed == 0 && backlog_ok && late <= max_late && p99 > pass_p99) {
      frac = std::clamp((w.limit_ms - pass_p99) / (p99 - pass_p99), 0.0, 1.0);
    }
    out.sustained = pass_rate + (rate - pass_rate) * frac;
    return out;
  }
  out.sustained = pass_rate;  // every rung passed: the ladder's top
  return out;
}

// --- one run -----------------------------------------------------------------

struct Metrics {
  MetricList values;
  void set(const std::string& name, double v) { values.emplace_back(name, v); }
};

struct RunResult {
  SetupTimes setup_median;
  std::vector<double> setup_ms;      // every stack's set-up, wall
  std::vector<double> setup_cpu_ms;  // every stack's set-up, process CPU
  double setup_s = 0.0;
  PhaseResult admission;
  PhaseResult failover;
  Ladder ladder;
  LedgerCheck ledger;
  double ledger_scrape_ms = 0.0;
  double ledger_payload_bytes = 0.0;
  std::string stats_json;
  ReplayResult replay;
  // The last repetition's timed admission phase: its slice of the op log
  // and its wall time (the replay's scheduler busy share).
  std::size_t admission_ops_begin = 0, admission_ops_end = 0;
  double admission_wall_s = 0.0;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  double peak_rss_mb = 0.0;
  bool valid = true;
  std::string invalid_reason;
  /// End-to-end figures of each fresh-stack repetition; the run reports
  /// their medians, so one repetition hit by a noisy neighbour does not
  /// carry the run.
  std::vector<MetricList> rep_e2e;
};

int count_threads() {
  int n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(d);
  }
  return n;
}

int cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

void add_attempted(RunResult& r, const PhaseResult& p) {
  r.attempted += p.submits + p.withdraws + p.downs + p.ups +
                 static_cast<long>(p.scrape_ms.size());
}

/// One repetition's end-to-end figures (set-up and peak RSS are per run).
MetricList rep_metrics(const Workload& w, const PhaseResult& a,
                       const PhaseResult& f, double sla_met) {
  const PhaseResult& per_op = w.shape == Shape::kFlap ? f : a;
  const long ops = w.shape == Shape::kFlap ? f.downs : a.submits;
  return {
      {"admit_p50_ms", quantile(a.admit_ms, 0.5)},
      {"alloc_live_p50_ms", quantile(a.live_ms, 0.5)},
      {"failover_p50_ms", quantile(f.failover_ms, 0.5)},
      {"accept_ratio", a.submits > 0 ? static_cast<double>(a.admitted) /
                                           static_cast<double>(a.submits)
                                     : 0.0},
      {"sla_met_ratio", sla_met},
      {"cpu_us_per_op",
       ops > 0 ? per_op.cpu_us / static_cast<double>(ops) : 0.0},
  };
}

void merge(PhaseResult& into, const PhaseResult& p) {
  const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.admit_ms, p.admit_ms);
  append(into.live_ms, p.live_ms);
  append(into.failover_ms, p.failover_ms);
  append(into.apply_lag_ms, p.apply_lag_ms);
  append(into.late_ms, p.late_ms);
  append(into.scrape_ms, p.scrape_ms);
  into.scrape_bytes += p.scrape_bytes;
  into.submits += p.submits;
  into.admitted += p.admitted;
  into.rejected += p.rejected;
  into.shed += p.shed;
  into.withdraws += p.withdraws;
  into.downs += p.downs;
  into.ups += p.ups;
  into.backlog_max = std::max(into.backlog_max, p.backlog_max);
  into.replies += p.replies;
  into.reply_reads += p.reply_reads;
  into.wall_s += p.wall_s;
  into.cpu_us += p.cpu_us;
  into.client_cpu_us += p.client_cpu_us;
}

/// The workload's phases on one live stack of an `S`-second repetition;
/// results are merged into `r`. `last` marks the repetition that the traced
/// run also ladders, scrapes and replays.
void run_rep(const Workload& w, const Options& opt, double S, int rep,
             bool traced, bool last, LiveStack& live, RunResult& r,
             SpanLog& spans) {
  bate::Rng rng((opt.seed + 7919ULL * static_cast<std::uint64_t>(rep)) *
                    0x9E3779B97F4A7C15ULL +
                17);
  const int pairs = live.catalog().pair_count();
  const int links = live.topo().link_count();
  const auto flaps = [&](double gap_ms, double scrape_ms) {
    return flap_events(rng, links, w.flap_downs, gap_ms, w.flap_dwell_ms,
                       w.flap_max_down, scrape_ms);
  };
  PhaseResult adm, fail;
  double sla_met = 0.0;
  const auto ledger_scrape = [&](bool crosscheck) {
    double ms = 0.0;
    const std::string payload = live.scrape_slo(&ms);
    r.ledger_scrape_ms = ms;
    r.ledger_payload_bytes = static_cast<double>(payload.size());
    const LedgerCheck check = read_ledger(payload, crosscheck, live);
    r.ledger.rows += check.rows;
    sla_met = check.met_ratio;
    r.ledger.max_abs_err = std::max(r.ledger.max_abs_err, check.max_abs_err);
    ++r.attempted;
  };
  const auto timed = [&](PhaseResult& into, const PhaseResult& p) {
    merge(&into == &r.admission ? adm : fail, p);
    merge(into, p);
    add_attempted(r, p);
  };
  const auto admission = [&](const std::vector<Event>& events) {
    r.admission_ops_begin = live.op_log().size();
    const PhaseResult p = live.run(events, false);
    r.admission_ops_end = live.op_log().size();
    r.admission_wall_s = p.wall_s;
    timed(r.admission, p);
  };
  const auto failover = [&](double gap_ms, double scrape_ms) {
    const PhaseResult p = live.run(flaps(gap_ms, scrape_ms), true);
    check_plans(live, p);
    timed(r.failover, p);
  };
  const double flap_s = w.flap_downs * w.flap_gap_ms / 1000.0;

  switch (w.shape) {
    case Shape::kChurn: {
      const auto make = [&](bate::Rng& g) { return churn_demand(g, pairs); };
      // Warm set, then flaps over it while it is small enough for a full
      // backup broadcast per report, then the timed admission phase.
      add_attempted(
          r, live.run(poisson_submits(live, rng, w.nominal_rate,
                                      static_cast<double>(w.warm_demands) /
                                          w.nominal_rate,
                                      false, make),
                      false));
      failover(w.flap_gap_ms, 0.0);
      ledger_scrape(false);
      admission(poisson_submits(live, rng, w.nominal_rate,
                                std::max(1.0, S - flap_s - 1.5), true, make));
      break;
    }
    case Shape::kPaper: {
      const double total_s = std::max(3.0, S - flap_s - 1.5);
      admission(paper_events(live, opt.seed + static_cast<std::uint64_t>(rep),
                             w.nominal_rate, w.mean_hold_s, total_s, true));
      failover(w.flap_gap_ms, 0.0);
      ledger_scrape(false);
      break;
    }
    case Shape::kFlap: {
      const auto make = [&](bate::Rng& g) { return tier_demand(g, pairs); };
      // Untimed warm-up, then a timed trickle of admissions on top of it,
      // then the flap campaign over the lot.
      constexpr double kWarmRate = 4000.0;
      add_attempted(
          r, live.run(poisson_submits(live, rng, kWarmRate,
                                      w.warm_demands / kWarmRate, false, make),
                      false));
      admission(
          poisson_submits(live, rng, w.nominal_rate, w.admit_s, true, make));
      const double gap_ms =
          std::max(20.0, (S - w.admit_s - 2.5) * 1000.0 / w.flap_downs);
      failover(gap_ms, 1000.0);
      ledger_scrape(true);
      break;
    }
  }

  r.rep_e2e.push_back(rep_metrics(w, adm, fail, sla_met));

  if (last) r.stats_json = live.scrape_stats();

  // The replay feeds the nominal phases' event order through the layers,
  // so it runs before the ladder adds its overload rungs to the op log.
  if (traced && last) {
    r.replay = replay(live, spans, S, r.admission_ops_begin,
                      r.admission_ops_end);
  }
  // The capacity ladder overloads the stack on purpose, so only the traced
  // run climbs it (system.sustained_admits_per_s); the untraced run's
  // end-to-end figures stay those of the nominal load.
  if (traced && last) {
    r.ladder = run_ladder(live, w, rng, w.ladder_step_s, opt.seed);
    r.attempted += r.ladder.attempted;
  }
  live.check_final_table();
}

RunResult run_workload(const Workload& w, const Options& opt, bool traced,
                       SpanLog& spans) {
  RunResult r;
  const double S = opt.seconds;
  const int reps = w.reps;

  // Set-up is measured on throwaway stacks around the repetitions plus
  // every repetition's stack; the median is the figure (the first pays
  // cold caches). A probe resets the process-wide registry, so probes only
  // run while no repetition's stack is alive.
  std::vector<SetupTimes> setups;
  const auto probe = [&] {
    for (int i = 0; i < kSetupProbes; ++i) {
      SpanLog quiet;
      LiveStack stack(w.stack, quiet, false);
      setups.push_back(stack.setup);
    }
  };
  for (int rep = 0; rep < reps; ++rep) {
    probe();
    const bool last = rep == reps - 1;
    spans.set_enabled(traced && last);
    LiveStack live(w.stack, spans, traced && last);
    setups.push_back(live.setup);
    // Budget: the controller loop, the broker and this client thread must
    // fit the cores; the shared ThreadPool's workers only run in set-up.
    const int pool = bate::ThreadPool::shared().thread_count();
    const int active = count_threads() - pool;
    if (active > cores() || live.client_connections() > cores()) {
      throw std::runtime_error(
          "over budget: " + std::to_string(active) + " active threads, " +
          std::to_string(live.client_connections()) +
          " client connections, " + std::to_string(cores()) + " cores");
    }
    run_rep(w, opt, S / reps, rep, traced, last, live, r, spans);
    r.failed += live.failures();
    for (const std::string& e : live.errors()) r.errors.push_back(e);
  }
  probe();

  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return quantile(v, 0.5);
  };
  r.setup_median.catalog_ms = median_of(&SetupTimes::catalog_ms);
  r.setup_median.scheduler_ms = median_of(&SetupTimes::scheduler_ms);
  r.setup_median.start_ms = median_of(&SetupTimes::start_ms);
  for (const SetupTimes& s : setups) {
    r.setup_ms.push_back(s.total_s() * 1e3);
    r.setup_cpu_ms.push_back(s.cpu_ms);
  }
  // setup_s is the set-up's CPU time: its wall time depends on whether the
  // scheduler build's thread-pool tasks ran in parallel or were drained by
  // the calling thread before the idle workers woke, which varies from run
  // to run with the machine (on B4 8 ms vs 25 ms wall for the same work).
  r.setup_s = quantile(r.setup_cpu_ms, 0.5) / 1e3;

  // Validity: the generator must have kept its schedule in the timed
  // phases, else their latencies measure the client.
  std::vector<double> late = r.admission.late_ms;
  late.insert(late.end(), r.failover.late_ms.begin(),
              r.failover.late_ms.end());
  const double late_p90 = quantile(late, 0.9);
  if (late_p90 > kMaxLateShare * w.limit_ms) {
    r.valid = false;
    r.invalid_reason = "generator fell behind its schedule: lateness p90 " +
                       std::to_string(late_p90) + " ms > " +
                       std::to_string(kMaxLateShare * w.limit_ms) + " ms";
  }
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// --- metrics -----------------------------------------------------------------

/// Latency medians, ratios and CPU per op are the median over repetitions
/// (robust to one repetition hit by a noisy neighbour). Tail latencies are
/// not end-to-end metrics: pooled over a run, their spread across seeds
/// exceeded any usable bound (0.15-0.33 for the 90th percentile on
/// paper_b4 and flap_failover), so they are printed on the '#' lines only.
void add_end_to_end(const RunResult& r, Metrics& m) {
  const auto rep_median = [&](const std::string& name) {
    std::vector<double> v;
    for (const MetricList& rep : r.rep_e2e) {
      for (const auto& [n, x] : rep) {
        if (n == name) v.push_back(x);
      }
    }
    return quantile(v, 0.5);
  };
  m.set("setup_s", r.setup_s);
  for (const char* name : {"admit_p50_ms", "alloc_live_p50_ms",
                           "failover_p50_ms", "accept_ratio", "sla_met_ratio",
                           "cpu_us_per_op"}) {
    m.set(name, rep_median(name));
  }
  m.set("peak_rss_mb", r.peak_rss_mb);
}

void add_per_layer(const RunResult& r, double untraced_admit_p50,
                   Metrics& m) {
  const ReplayResult& rp = r.replay;
  const PhaseResult& a = r.admission;
  const PhaseResult& f = r.failover;
  m.set("routing.catalog_build_ms", r.setup_median.catalog_ms);
  m.set("scenario.scheduler_build_ms", r.setup_median.scheduler_ms);
  m.set("system.stack_start_ms", r.setup_median.start_ms);
  m.set("system.sustained_admits_per_s", r.ladder.sustained);
  m.set("core.offer_batch_us.p50", quantile(rp.offer_batch_us, 0.5));
  m.set("core.offer_batch_us.p99", quantile(rp.offer_batch_us, 0.99));
  m.set("core.conjecture_share", rp.conjecture_share);
  m.set("core.reschedule_ms.p50", quantile(rp.reschedule_ms, 0.5));
  m.set("core.reschedule_ms.p99", quantile(rp.reschedule_ms, 0.99));
  // Replayed scheduling time of the timed admission phase against that
  // phase's live wall time.
  m.set("core.reschedule_busy_share",
        r.admission_wall_s > 0.0
            ? rp.window_reschedule_ms / 1000.0 / r.admission_wall_s
            : 0.0);
  m.set("core.remove_us.p50", quantile(rp.remove_us, 0.5));
  m.set("core.precompute_ms.p50", quantile(rp.precompute_ms, 0.5));
  m.set("core.precompute_ms.p99", quantile(rp.precompute_ms, 0.99));
  m.set("core.plan_lookup_us", quantile(rp.plan_lookup_us, 0.5));
  m.set("solver.sched_lp_iterations.p50", quantile(rp.lp_iterations, 0.5));
  m.set("solver.sched_lp_rows", quantile(rp.lp_rows, 0.5));
  m.set("solver.batch_lanes_per_precompute", rp.lanes_per_precompute);
  m.set("net.encode_ns_per_frame", rp.encode_ns_per_frame);
  m.set("net.decode_ns_per_frame", rp.decode_ns_per_frame);

  const bate::json::JsonValue stats = parse_stats(r.stats_json);
  const double ops = static_cast<double>(std::max(1L, r.attempted));
  m.set("net.wire_bytes_per_op",
        (counter(stats, "bate_controller_bytes_in_total") +
         counter(stats, "bate_controller_bytes_out_total")) /
            ops);
  const long reads = a.reply_reads + f.reply_reads;
  m.set("net.replies_per_read",
        reads > 0 ? static_cast<double>(a.replies + f.replies) /
                        static_cast<double>(reads)
                  : 0.0);
  m.set("system.reply_latency_us.p99",
        histogram(stats, "bate_admission_reply_latency_us").quantile(0.99));
  m.set("system.batch_size.p50",
        histogram(stats, "bate_admission_batch_size").quantile(0.5));
  m.set("system.backlog_max", static_cast<double>(a.backlog_max));
  m.set("system.broadcast_frames_per_op",
        counter(stats, "bate_controller_allocation_updates_total") / ops);
  m.set("system.broker_apply_lag_ms", quantile(f.apply_lag_ms, 0.5));
  std::vector<double> scrapes = f.scrape_ms;
  scrapes.push_back(r.ledger_scrape_ms);
  m.set("obs.slo_scrape_ms.p50", quantile(scrapes, 0.5));
  m.set("obs.slo_scrape_ms.p99", quantile(scrapes, 0.99));
  m.set("obs.slo_payload_kb",
        (f.scrape_bytes + r.ledger_payload_bytes) /
            static_cast<double>(f.scrape_ms.size() + 1) / 1024.0);
  std::vector<double> late = a.late_ms;
  late.insert(late.end(), f.late_ms.begin(), f.late_ms.end());
  m.set("system.gen_late_ms.p99", quantile(late, 0.99));
  const double traced_p50 = quantile(a.admit_ms, 0.5);
  m.set("obs.trace_overhead_pct",
        untraced_admit_p50 > 0.0
            ? (traced_p50 - untraced_admit_p50) / untraced_admit_p50 * 100.0
            : 0.0);
}

const char* unit_of(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (name == "setup_s") return "s";
  if (name == "system.sustained_admits_per_s") return "1/s";
  if (name == "peak_rss_mb") return "MB";
  if (name == "cpu_us_per_op") return "us";
  if (ends("_ratio") || ends("_share")) return "ratio";
  if (ends("_pct")) return "%";
  if (ends("_kb")) return "KB";
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("_us") != std::string::npos) return "us";
  if (name.find("_ns") != std::string::npos) return "ns";
  if (name.find("bytes") != std::string::npos) return "bytes";
  return "count";
}

void print_phase(const char* name, const PhaseResult& p) {
  std::printf(
      "# %-9s submits %ld (admitted %ld rejected %ld shed %ld) withdraws %ld "
      "downs %ld ups %ld scrapes %zu  wall %.2f s  late p99 %.3f ms max %.3f "
      "ms  cpu %.2f s (client %.2f s)\n#   samples: admit %zu live %zu "
      "failover %zu  p99: admit %.3f live %.3f failover %.3f ms\n"
      "#   p90: admit %.3f live %.3f failover %.3f ms\n",
      name, p.submits, p.admitted, p.rejected, p.shed, p.withdraws, p.downs,
      p.ups, p.scrape_ms.size(), p.wall_s, quantile(p.late_ms, 0.99),
      p.late_ms.empty() ? 0.0
                        : *std::max_element(p.late_ms.begin(), p.late_ms.end()),
      p.cpu_us / 1e6, p.client_cpu_us / 1e6, p.admit_ms.size(),
      p.live_ms.size(), p.failover_ms.size(), quantile(p.admit_ms, 0.99),
      quantile(p.live_ms, 0.99), quantile(p.failover_ms, 0.99),
      quantile(p.admit_ms, 0.9), quantile(p.live_ms, 0.9),
      quantile(p.failover_ms, 0.9));
}

/// Human-readable run summary (lines start with '#').
void print_run(const RunResult& r) {
  std::printf(
      "# setup: %zu stacks; wall q1 %.3f median %.3f q3 %.3f ms (catalog "
      "%.3f scheduler %.3f start %.3f); cpu q1 %.3f median %.3f q3 %.3f ms\n",
      r.setup_ms.size(), quantile(r.setup_ms, 0.25), quantile(r.setup_ms, 0.5),
      quantile(r.setup_ms, 0.75), r.setup_median.catalog_ms,
      r.setup_median.scheduler_ms, r.setup_median.start_ms,
      quantile(r.setup_cpu_ms, 0.25), quantile(r.setup_cpu_ms, 0.5),
      quantile(r.setup_cpu_ms, 0.75));
  print_phase("admission", r.admission);
  print_phase("failover", r.failover);
  std::printf("# ledger: %zu rows scraped, replay crosscheck max err %.3g\n",
              r.ledger.rows, r.ledger.max_abs_err);
  for (const std::string& s : r.ladder.log) std::printf("# %s\n", s.c_str());
  for (std::size_t k = 0; k < r.rep_e2e.size(); ++k) {
    std::printf("# rep %zu:", k);
    for (const auto& [name, v] : r.rep_e2e[k]) {
      std::printf(" %s=%.4g", name.c_str(), v);
    }
    std::printf("\n");
  }
}

void print_metrics(const Metrics& m) {
  for (const auto& [name, v] : m.values) {
    std::printf("%-36s %18.6f %s\n", name.c_str(), v, unit_of(name));
  }
}

void emit(const Metrics& m, bool correct, long attempted, long failed) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m.values) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            unit_of(name) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The workload's parameters (make_workload is their only source).
void print_workload(const Workload& w, const Options& opt) {
  std::printf(
      "# workload %s seed %llu seconds %.0f reps %d brokers %d tenants %d "
      "nominal_rate %.0f/s latency_limit %.0f ms warm_demands %d flap_downs "
      "%d flap_gap_ms %.0f flap_dwell_ms %.0f flap_max_down %d\n",
      w.name, static_cast<unsigned long long>(opt.seed), opt.seconds, w.reps,
      w.stack.brokers, w.stack.tenants, w.nominal_rate, w.limit_ms,
      w.warm_demands, w.flap_downs, w.flap_gap_ms, w.flap_dwell_ms,
      w.flap_max_down);
  std::printf(
      "# controller reschedule_after_batch %d precompute_backup %d tick_ms %d "
      "scheduler_max_failures %d mean_hold_s %.2f admit_s %.2f\n",
      w.stack.controller.reschedule_after_batch ? 1 : 0,
      w.stack.controller.precompute_backup ? 1 : 0, w.stack.controller.tick_ms,
      w.stack.scheduler.max_failures, w.mean_hold_s, w.admit_s);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload churn_small|paper_b4|"
               "flap_failover --seed N --seconds S --trace 0|1 "
               "[--chrome FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int a = 1; a < argc; a += 2) {
    if (a + 1 >= argc) return usage();
    const std::string k = argv[a];
    const char* v = argv[a + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (k == "--trace") {
      opt.trace = std::atoi(v);
    } else if (k == "--chrome") {
      opt.chrome = v;
    } else {
      return usage();
    }
  }
  Workload w = make_workload(opt.workload);
  if (w.name == nullptr || opt.seconds <= 0.0) return usage();
  // One real broker: with the controller loop and this client that is
  // three busy threads, leaving a core for the rest of the machine.
  w.stack.brokers = 1;

  // Timer slack 1 ns: the client sleeps in ppoll until each send time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  bate::obs::set_enabled(true);
  if (cores() < 3 || w.stack.tenants + 1 > cores()) {
    std::fprintf(stderr,
                 "perfbench: %d cores cannot hold the client, the controller "
                 "loop, a broker and %d client connections\n",
                 cores(), w.stack.tenants + 1);
    return 2;
  }

  print_workload(w, opt);
  try {
    SpanLog spans;
    Metrics m;
    RunResult r;
    if (opt.trace == 0) {
      r = run_workload(w, opt, false, spans);
      print_run(r);
      add_end_to_end(r, m);
    } else {
      const RunResult plain = run_workload(w, opt, false, spans);
      r = run_workload(w, opt, true, spans);
      print_run(r);
      std::printf("# replay %ld of %ld ops, %zu spans\n",
                  r.replay.ops_replayed, r.replay.ops_total, spans.size());
      add_per_layer(r, quantile(plain.admission.admit_ms, 0.5), m);
      r.failed += plain.failed;
      r.attempted += plain.attempted;
      r.errors.insert(r.errors.end(), plain.errors.begin(),
                      plain.errors.end());
      if (!plain.valid) {
        r.valid = false;
        r.invalid_reason = plain.invalid_reason;
      }
      if (!opt.chrome.empty()) {
        std::ofstream out(opt.chrome, std::ios::trunc);
        out << spans.chrome_json();
      }
    }
    for (const std::string& e : r.errors) {
      if (!e.empty()) {
        std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
      }
    }
    const bool correct = r.failed == 0;
    print_metrics(m);
    if (!r.valid) {
      // Not a latency result: no JSON line.
      std::fprintf(stderr, "perfbench: run invalid: %s\n",
                   r.invalid_reason.c_str());
      return 3;
    }
    emit(m, correct, std::max(1L, r.attempted), r.failed);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
