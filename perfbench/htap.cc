// htap_200k / htap_10k: the paper's mixed workload on one storage node.
//
// Load: an open-loop CDR stream at a fixed rate from one generator thread,
// plus kQueryClients closed-loop clients drawing Q1..Q7 uniformly through
// AimCluster::ExecuteQuery. Every event is timed from its due time at the
// generator to its completion stamp (EventCompletion::complete_nanos), so a
// stall that delays later sends is counted, not hidden; completions are
// harvested without blocking the send schedule.
//
// A traced run (--trace 1) splits the window in two halves: the first runs
// untraced, the second sends the clients through a benchmark-owned
// RtaFrontEnd over a timing NodeChannel, and the difference in query
// throughput between the halves is the tracing overhead.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aim/common/logging.h"
#include "aim/server/aim_cluster.h"
#include "aim/server/local_node_channel.h"
#include "aim/server/rta_front_end.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/query_workload.h"
#include "bench.h"

namespace aim {
namespace perfbench {
namespace {

// Request id of the query the calling client thread is executing; the
// timing channel reads it on the same thread inside RtaFrontEnd::Execute.
thread_local std::uint64_t t_request = 0;

/// NodeChannel that records a span from SubmitQuery to the node's reply.
class TimingChannel : public NodeChannel {
 public:
  TimingChannel(NodeChannel* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  NodeInfo info() const override { return inner_->info(); }
  bool SubmitEvent(std::vector<std::uint8_t> bytes,
                   EventCompletion* completion) override {
    return inner_->SubmitEvent(std::move(bytes), completion);
  }
  std::size_t SubmitEventBatch(std::vector<EventMessage>&& batch) override {
    return inner_->SubmitEventBatch(std::move(batch));
  }
  bool SubmitQuery(
      std::vector<std::uint8_t> bytes,
      std::function<void(std::vector<std::uint8_t>&&)> reply) override {
    const std::uint64_t request = t_request;
    const std::int64_t start = MonotonicNanos();
    SpanLog* spans = spans_;
    return inner_->SubmitQuery(
        std::move(bytes),
        [spans, request, start, reply](std::vector<std::uint8_t>&& out) {
          spans->Add({request, "server.node_query", start, MonotonicNanos()});
          reply(std::move(out));
        });
  }
  bool SubmitRecordRequest(RecordRequest request) override {
    return inner_->SubmitRecordRequest(std::move(request));
  }

 private:
  NodeChannel* inner_;
  SpanLog* spans_;
};

std::unique_ptr<AimCluster> BuildCluster(const Env& env,
                                         std::uint64_t entities) {
  AimCluster::Options o;
  o.num_nodes = 1;
  o.node.num_partitions = kPartitions;
  o.node.num_esp_threads = kEspThreads;
  auto cluster = std::make_unique<AimCluster>(
      env.schema.get(), &env.dims.catalog, &env.rules, o);
  std::vector<std::uint8_t> row(env.schema->record_size(), 0);
  for (EntityId e = 1; e <= entities; ++e) {
    std::fill(row.begin(), row.end(), 0);
    PopulateEntityProfile(*env.schema, env.dims, e, entities, row.data());
    AIM_CHECK(cluster->LoadEntity(e, row.data()).ok());
  }
  AIM_CHECK(cluster->Start().ok());
  return cluster;
}

/// Measurement windows on the MonotonicNanos clock. Window 0 is the whole
/// measured interval of an untraced run, or its untraced half when traced;
/// window 1 is the traced half.
struct Windows {
  std::int64_t begin[2] = {0, 0};
  std::int64_t end[2] = {0, 0};
  int count = 1;

  int Of(std::int64_t t) const {
    for (int w = 0; w < count; ++w) {
      if (t >= begin[w] && t < end[w]) return w;
    }
    return -1;
  }
  int Of(std::int64_t start, std::int64_t stop) const {
    const int w = Of(start);
    return w >= 0 && stop < end[w] ? w : -1;
  }
  double Seconds(int w) const {
    return static_cast<double>(end[w] - begin[w]) / 1e9;
  }
};

struct EventSide {
  std::vector<double> latency_ms[2];  // due time to completion
  std::int64_t last_complete[2] = {0, 0};
  std::vector<double> lag_ms[2];
  std::uint64_t acked[2] = {0, 0};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Open-loop generator: sends event i at start + i/eps, harvests finished
/// completions between sends, then waits (bounded) for the stragglers.
void GenerateEvents(AimCluster* cluster, std::uint64_t entities,
                    std::uint64_t seed, double eps, std::int64_t start,
                    const Windows& win, const std::atomic<bool>& stop,
                    EventSide* out) {
  const double interval_ns = 1e9 / eps;
  const std::size_t slots = static_cast<std::size_t>(
      std::ceil(static_cast<double>(win.end[win.count - 1] - start) /
                interval_ns)) + 64;
  auto done = std::make_unique<EventCompletion[]>(slots);
  std::vector<std::int64_t> due(slots, 0);
  std::vector<char> refused(slots, 0);
  CdrGenerator::Options gopts;
  gopts.num_entities = entities;
  gopts.seed = seed;
  CdrGenerator gen(gopts);
  Timestamp ts = 0;
  std::size_t sent = 0;
  std::size_t harvested = 0;

  auto harvest = [&] {
    while (harvested < sent) {
      const std::size_t i = harvested;
      if (!refused[i]) {
        if (!done[i].done.load(std::memory_order_acquire)) return;
        const int w = win.Of(due[i]);
        if (!done[i].status.ok()) {
          if (w >= 0) ++out->failed;
        } else if (w >= 0) {
          const std::int64_t complete = done[i].complete_nanos;
          out->latency_ms[w].push_back(
              static_cast<double>(complete - due[i]) / 1e6);
          out->last_complete[w] = std::max(out->last_complete[w], complete);
          ++out->acked[w];
        }
      }
      ++harvested;
    }
  };

  while (!stop.load(std::memory_order_acquire) && sent < slots) {
    const std::int64_t now = MonotonicNanos();
    while (sent < slots &&
           start + static_cast<std::int64_t>(sent * interval_ns) <= now) {
      const std::size_t i = sent++;
      due[i] = start + static_cast<std::int64_t>(i * interval_ns);
      const int w = win.Of(due[i]);
      if (w >= 0) {
        ++out->attempted;
        out->lag_ms[w].push_back(static_cast<double>(now - due[i]) / 1e6);
      }
      if (!cluster->IngestEvent(gen.Next(ts += 10), &done[i])) {
        refused[i] = 1;
        if (w >= 0) ++out->failed;
      }
    }
    harvest();
    const std::int64_t next =
        start + static_cast<std::int64_t>(sent * interval_ns);
    const std::int64_t wait = next - MonotonicNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  const std::int64_t deadline = MonotonicNanos() + 10'000'000'000LL;
  while (harvested < sent && MonotonicNanos() < deadline) {
    harvest();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (std::size_t i = harvested; i < sent; ++i) {
    if (!refused[i] && win.Of(due[i]) >= 0) ++out->failed;  // timed out
  }
  // Unfinished slots may still be written by the ESP thread: stop the node
  // (it drains its queues) before the slots go away.
  if (harvested < sent) cluster->Stop();
}

struct ClientSide {
  std::vector<double> latency_ms[2];
  std::uint64_t completed[2] = {0, 0};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct QueueSamples {
  std::vector<double> rta;
  std::vector<double> esp;
};

}  // namespace

void RunHtap(const Args& args, std::uint64_t entities, double eps,
             Report* report) {
  // Small set-ups take a fraction of a second and jitter more; take more.
  const int setups = args.trace ? 1 : entities <= 50000 ? 5 : 3;
  std::vector<double> setup_s;
  std::vector<double> reload_s;
  std::unique_ptr<Env> env;
  std::unique_ptr<AimCluster> cluster;
  for (int k = 0; k < setups; ++k) {
    cluster.reset();
    env.reset();
    Stopwatch total;
    env = std::make_unique<Env>(MakeEnv());
    Stopwatch reload;
    cluster = BuildCluster(*env, entities);
    reload_s.push_back(reload.ElapsedSeconds());
    setup_s.push_back(total.ElapsedSeconds());
  }
  StorageNode& node = cluster->node(0);
  MetricsRegistry& reg = cluster->metrics();

  SpanLog spans;
  LocalNodeChannel local(&node);
  TimingChannel timing(&local, &spans);
  RtaFrontEnd traced_front_end(std::vector<NodeChannel*>{&timing},
                               env->schema.get(), &env->dims.catalog);

  const double warm_s = std::min(1.5, std::max(0.5, args.seconds / 4));
  const std::int64_t start = MonotonicNanos();
  Windows win;
  win.begin[0] = start + static_cast<std::int64_t>(warm_s * 1e9);
  if (args.trace) {
    win.count = 2;
    win.end[0] = win.begin[0] + static_cast<std::int64_t>(args.seconds / 2 * 1e9);
    win.begin[1] = win.end[0];
    win.end[1] = win.begin[0] + static_cast<std::int64_t>(args.seconds * 1e9);
  } else {
    win.end[0] = win.begin[0] + static_cast<std::int64_t>(args.seconds * 1e9);
  }
  const std::int64_t finish = win.end[win.count - 1];

  std::atomic<bool> stop{false};
  EventSide events;
  std::thread generator([&] {
    GenerateEvents(cluster.get(), entities, args.seed, eps, start, win, stop,
                   &events);
  });

  std::vector<ClientSide> clients(kQueryClients);
  std::vector<std::thread> client_threads;
  for (int c = 0; c < kQueryClients; ++c) {
    client_threads.emplace_back([&, c] {
      QueryWorkload workload(env->schema.get(), &env->dims,
                             args.seed * 1000003 + static_cast<std::uint64_t>(c));
      ClientSide& side = clients[c];
      std::uint64_t seq = 0;
      while (MonotonicNanos() < finish) {
        const Query q = workload.Next();
        const std::int64_t t0 = MonotonicNanos();
        const bool traced = win.count == 2 && t0 >= win.begin[1];
        QueryResult r;
        if (traced) {
          t_request = (static_cast<std::uint64_t>(c + 1) << 40) | ++seq;
          r = traced_front_end.Execute(q);
          spans.Add({t_request, "server.front_end_execute", t0,
                     MonotonicNanos()});
        } else {
          r = cluster->ExecuteQuery(q);
        }
        const std::int64_t t1 = MonotonicNanos();
        const int w = win.Of(t0, t1);
        if (w < 0) continue;
        ++side.attempted;
        if (!r.status.ok()) {
          ++side.failed;
          continue;
        }
        side.latency_ms[w].push_back(static_cast<double>(t1 - t0) / 1e6);
        ++side.completed[w];
      }
    });
  }

  // Registry snapshots at the start and end of the window the registry
  // metrics describe (the traced half when tracing).
  const int reg_window = win.count - 1;
  auto sleep_until = [](std::int64_t t) {
    const std::int64_t d = t - MonotonicNanos();
    if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  };
  AtomicHistogram* fresh = NodeHistogram(reg, "aim_fresh_staleness_millis");
  sleep_until(win.begin[0]);
  HistogramSnapshot fresh_before = fresh->Snapshot();
  sleep_until(win.begin[reg_window]);
  const RegistrySnapshot reg_before = TakeRegistrySnapshot(reg, "", "");
  QueueSamples queues;
  std::atomic<bool> sampling{args.trace};
  std::thread sampler;
  if (args.trace) {
    Gauge* rta_depth = reg.GetGauge("aim_rta_queue_depth", {{"node", "0"}});
    Gauge* esp_depth =
        reg.GetGauge("aim_esp_queue_depth", {{"node", "0"}, {"thread", "0"}});
    sampler = std::thread([&, rta_depth, esp_depth] {
      while (sampling.load(std::memory_order_acquire)) {
        queues.rta.push_back(static_cast<double>(rta_depth->Value()));
        queues.esp.push_back(static_cast<double>(esp_depth->Value()));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  sleep_until(finish);
  const RegistrySnapshot reg_after = TakeRegistrySnapshot(reg, "", "");
  const HistogramSnapshot fresh_after = fresh->Snapshot();
  sampling.store(false, std::memory_order_release);
  if (sampler.joinable()) sampler.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : client_threads) t.join();
  generator.join();

  // Quiesce, let merge cycles fold the last events into the main, then ask
  // the seeded oracle queries live and check them on the stopped node.
  std::vector<OracleCase> cases;
  if (node.running()) {
    WaitScanCycles(node, 3);
    for (Query& q : OracleQueries(*env, args.seed)) {
      QueryResult live = cluster->ExecuteQuery(q);
      cases.push_back({std::move(q), std::move(live)});
    }
  } else {
    report->Mismatch("events",
                     "node stopped before the oracle check (event timeout)");
  }
  cluster->Stop();
  if (!cases.empty()) {
    CheckStoppedNode(*env, node, cases, args.plant == "oracle", report);
  }

  std::uint64_t q_attempted = 0;
  std::uint64_t q_failed = 0;
  std::vector<double> query_ms[2];
  std::uint64_t query_done[2] = {0, 0};
  for (ClientSide& c : clients) {
    q_attempted += c.attempted;
    q_failed += c.failed;
    for (int w = 0; w < 2; ++w) {
      query_ms[w].insert(query_ms[w].end(), c.latency_ms[w].begin(),
                         c.latency_ms[w].end());
      query_done[w] += c.completed[w];
    }
  }
  report->attempted = events.attempted + q_attempted + cases.size();
  report->failed = events.failed + q_failed;
  for (const OracleCase& oc : cases) {
    report->failed += !oc.live.status.ok();
  }

  const double qps0 = query_done[0] / win.Seconds(0);
  std::printf("events: %llu attempted, %llu failed; queries: %llu attempted, "
              "%llu failed; oracle queries %zu\n",
              static_cast<unsigned long long>(events.attempted),
              static_cast<unsigned long long>(events.failed),
              static_cast<unsigned long long>(q_attempted),
              static_cast<unsigned long long>(q_failed), cases.size());

  if (!args.trace) {
    report->E2e("setup_s", Median(setup_s), "s");
    report->E2e("query_p50_ms", Quantile(query_ms[0], 0.5), "ms");
    report->E2e("query_p99_ms", Quantile(query_ms[0], 0.99), "ms");
    report->E2e("query_qps", qps0, "1/s");
    report->E2e("event_p50_ms", Quantile(events.latency_ms[0], 0.5), "ms");
    // Acked events over the span from the window's first due time to its
    // last completion: equals the offered rate unless a backlog builds.
    report->E2e("event_eps",
                events.acked[0] /
                    (static_cast<double>(events.last_complete[0] -
                                         win.begin[0]) / 1e9),
                "1/s");
    report->E2e("fresh_mean_ms", WindowMean(fresh_before, fresh_after), "ms");
    // Without a data directory a replacement node can only reload from
    // the source: its recovery time is constructor + bulk load + Start.
    report->E2e("rto_s", Median(reload_s), "s");
    report->E2e("rss_mb", PeakRssMb(), "MB");
    std::printf("samples: %zu queries, %zu events\n", query_ms[0].size(),
                events.latency_ms[0].size());
    return;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<double> node_us = spans.DurationsMicros("server.node_query");
  std::vector<double> self_us;
  {
    // Pair execute and node spans by request id.
    std::unordered_map<std::uint64_t, double> node_of;
    const std::vector<Span> all = spans.Copy();
    for (const Span& s : all) {
      if (std::string(s.name) == "server.node_query") {
        node_of[s.request] = (s.end_nanos - s.start_nanos) / 1e3;
      }
    }
    for (const Span& s : all) {
      if (std::string(s.name) != "server.front_end_execute") continue;
      auto it = node_of.find(s.request);
      if (it != node_of.end()) {
        self_us.push_back((s.end_nanos - s.start_nanos) / 1e3 - it->second);
      }
    }
    const double node_mean = Mean(node_us);
    const double self_mean = Mean(self_us);
    const double client_mean_us = Mean(query_ms[1]) * 1e3;
    std::printf(
        "query latency accounting (traced half, means): node %.1f us + "
        "front-end self %.1f us = %.1f us; client-observed %.1f us "
        "(coverage %.3f); untraced client-observed %.1f us\n",
        node_mean, self_mean, node_mean + self_mean, client_mean_us,
        Ratio(node_mean + self_mean, client_mean_us), Mean(query_ms[0]) * 1e3);
  }
  report->Layer("server.node_query_us_p50", Quantile(node_us, 0.5), "us");
  report->Layer("server.node_query_us_p99", Quantile(node_us, 0.99), "us");
  report->Layer("server.front_end_self_us", Median(self_us), "us");
  report->Layer("server.rta_queue_depth_mean", Mean(queues.rta), "count");
  report->Layer("server.rta_queue_depth_max",
                queues.rta.empty() ? 0 : *std::max_element(queues.rta.begin(), queues.rta.end()),
                "count");
  report->Layer("server.esp_queue_depth_mean", Mean(queues.esp), "count");
  report->Layer("server.esp_queue_depth_max",
                queues.esp.empty() ? 0 : *std::max_element(queues.esp.begin(), queues.esp.end()),
                "count");
  AddRegistryLayers(reg_before, reg_after, report);
  report->Layer("rta.partition_skew", ScanSkew(*env, node, args.seed), "ratio");
  report->Layer("gen.lag_ms_p99", Quantile(events.lag_ms[1], 0.99), "ms");
  // The event tail swings with CPU scheduling on a shared host, too much
  // for an end-to-end bound; it is reported here, from the untraced half.
  report->Layer("esp.event_p99_ms", Quantile(events.latency_ms[0], 0.99),
                "ms");
  const double qps1 = query_done[1] / win.Seconds(1);
  report->Layer("trace.overhead_pct", 100.0 * Ratio(qps0 - qps1, qps0), "%");
  // Durable and TCP layers are absent from this deployment.
  report->Layer("storage.checkpoint_s", 0, "s");
  report->Layer("storage.checkpoint_bytes", 0, "B");
  report->Layer("storage.restore_s", 0, "s");
  report->Layer("storage.replay_us_per_event", 0, "us");
  report->Layer("net.overhead_us_per_event", 0, "us");

  const std::string span_path = args.out_dir + "/spans_" + args.workload +
                                "_" + std::to_string(args.seed) + ".jsonl";
  if (spans.WriteJsonLines(span_path)) {
    std::printf("wrote %zu spans to %s\n", spans.size(), span_path.c_str());
  }

  // Replay on a standalone partition loaded with the same profiles; the
  // cluster goes first so the two never share memory.
  cluster.reset();
  DeltaMainStore store(env->schema.get(), PartitionStoreOptions());
  LoadPartition(*env, entities, /*partition=*/0, &store);
  ReplayLayers(*env, &store, /*partition=*/0, entities, args.seed, report);
}

}  // namespace perfbench
}  // namespace aim
