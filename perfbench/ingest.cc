// ingest_durable: writes only, on a durable node.
//
// One TcpClient loopback connection sends 32-event EVENT_BATCH frames under
// credit pacing: every 2nd batch ends with an acknowledged event (a
// "marker", which the server acks only after the covering fsync), and at
// most 4 markers may be unacknowledged. The measured window runs for
// --seconds, then one incremental checkpoint is requested and a fixed tail
// of events follows, so recovery always replays about the same log length.
// The node then stops without a final checkpoint, a fresh node recovers
// from the directory (timed), and the recovered state must reproduce the
// digest taken at stop and answer the seeded oracle queries.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "aim/common/logging.h"
#include "aim/esp/esp_engine.h"
#include "aim/net/tcp_client.h"
#include "aim/net/tcp_server.h"
#include "aim/server/local_node_channel.h"
#include "aim/server/rta_front_end.h"
#include "aim/storage/event_log.h"
#include "aim/storage/fs_util.h"
#include "aim/storage/recovery.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/query_workload.h"
#include "bench.h"

namespace aim {
namespace perfbench {
namespace {

constexpr std::uint32_t kBatch = 32;
// At most ~kMaxOutstandingMarkers * kMarkerEvents events are in flight, so
// the mid-run checkpoint stall delays well under 1% of the timed acks: the
// ack tail stays a property of steady ingest, and the stall itself is
// reported as storage.checkpoint_s.
constexpr std::uint64_t kMarkerEvents = 2 * kBatch;
constexpr std::size_t kMaxOutstandingMarkers = 4;
constexpr std::uint64_t kWarmEvents = 4096;
/// Events sent after the checkpoint request: the log recovery replays.
constexpr std::uint64_t kTailEvents = 10000;
/// Events per transport in the local-vs-TCP comparison (traced run).
constexpr std::uint64_t kOverheadEvents = 8192;

StorageNode::Options DurableOptions(const std::string& dir) {
  StorageNode::Options o;
  o.num_partitions = kPartitions;
  o.num_esp_threads = kEspThreads;
  o.durability.dir = dir;
  return o;
}

void RemoveDataDir(const std::string& dir) {
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    const std::string pdir = dir + "/p" + std::to_string(p);
    StatusOr<std::vector<std::string>> names = fs::ListDir(pdir);
    if (names.ok()) {
      for (const std::string& n : *names) std::remove((pdir + "/" + n).c_str());
    }
    ::rmdir(pdir.c_str());
  }
  ::rmdir(dir.c_str());
}

/// Bytes of every checkpoint file under the node's partition directories.
std::map<std::string, std::uint64_t> ChainFiles(const std::string& dir) {
  std::map<std::string, std::uint64_t> out;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    const std::string pdir = dir + "/p" + std::to_string(p);
    StatusOr<std::vector<std::string>> names = fs::ListDir(pdir);
    if (!names.ok()) continue;
    for (const std::string& n : *names) {
      if (n.rfind("ckpt-", 0) != 0) continue;
      StatusOr<std::uint64_t> size = fs::FileSize(pdir + "/" + n);
      if (size.ok()) out[pdir + "/" + n] = *size;
    }
  }
  return out;
}

/// Cold start: load every profile, write the initial full checkpoint and
/// start the threads.
std::unique_ptr<StorageNode> BuildDurableNode(const Env& env,
                                              const std::string& dir,
                                              std::uint64_t entities) {
  auto node = std::make_unique<StorageNode>(
      env.schema.get(), &env.dims.catalog, &env.rules, DurableOptions(dir));
  StatusOr<StorageNode::RecoveryStats> rec = node->Recover();
  AIM_CHECK_MSG(rec.ok() && rec->cold_start, "data directory not empty");
  std::vector<std::uint8_t> row(env.schema->record_size(), 0);
  for (EntityId e = 1; e <= entities; ++e) {
    std::fill(row.begin(), row.end(), 0);
    PopulateEntityProfile(*env.schema, env.dims, e, entities, row.data());
    AIM_CHECK(node->BulkLoad(e, row.data()).ok());
  }
  AIM_CHECK(node->CheckpointNow().ok());
  AIM_CHECK(node->Start().ok());
  return node;
}

/// A sample stamped with when it was taken (MonotonicNanos).
struct TimedSample {
  std::int64_t at = 0;
  double value = 0;
};

inline constexpr std::int64_t kSliceNanos = 1'000'000'000;

/// Acknowledged markers: submit-to-ack latency, and the number of events
/// each ack covers stamped with the ack time.
struct AckLog {
  std::vector<double> latency_ms;
  std::vector<TimedSample> acked;
};

/// Median over the full 1 s slices of the acknowledged events per second
/// (the whole span when the window is shorter than two slices).
double SlicedRate(const std::vector<TimedSample>& acked) {
  if (acked.size() < 2) return 0;
  const std::int64_t first = acked.front().at;
  const std::int64_t span = acked.back().at - first;
  const std::size_t full = static_cast<std::size_t>(span / kSliceNanos);
  if (full < 2) {
    double total = 0;
    for (std::size_t i = 1; i < acked.size(); ++i) total += acked[i].value;
    return total / (static_cast<double>(span) / 1e9);
  }
  std::vector<double> per_slice(full, 0);
  for (std::size_t i = 1; i < acked.size(); ++i) {
    const auto s = static_cast<std::size_t>((acked[i].at - first) / kSliceNanos);
    if (s < full) per_slice[s] += acked[i].value;
  }
  return Median(per_slice);
}

/// Credit-paced event sender over one channel (see the file comment).
class Sender {
 public:
  Sender(NodeChannel* channel, std::uint64_t entities, std::uint64_t seed,
         Timestamp* ts)
      : channel_(channel), gen_(GenOptions(entities, seed)), ts_(ts) {}

  /// Sends `count` events, or when `count` is 0 until `deadline`. Each
  /// marker's ack is logged in `acks` (nullable); `poll`
  /// runs after every batch; `spans` (nullable) records each submit call.
  void Send(std::uint64_t count, std::int64_t deadline,
            AckLog* acks, SpanLog* spans,
            const std::function<void()>& poll = {}) {
    std::uint64_t sent = 0;
    while (count > 0 ? sent < count : MonotonicNanos() < deadline) {
      const std::uint32_t k = static_cast<std::uint32_t>(
          count > 0 ? std::min<std::uint64_t>(kBatch, count - sent) : kBatch);
      since_marker_ += k;
      SubmitBatch(k, since_marker_ >= kMarkerEvents, acks, spans);
      sent += k;
      Harvest(/*wait_front=*/false, spans);
      while (outstanding_.size() > kMaxOutstandingMarkers) {
        Harvest(/*wait_front=*/true, spans);
      }
      if (poll) poll();
    }
  }

  /// Sends one last marker and waits for every outstanding ack.
  void Drain(AckLog* acks, SpanLog* spans) {
    since_marker_ += 1;
    SubmitBatch(1, /*mark=*/true, acks, spans);
    while (!outstanding_.empty()) Harvest(/*wait_front=*/true, spans);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t acked() const { return acked_; }
  std::uint64_t failed() const { return failed_; }

 private:
  struct Marker {
    std::unique_ptr<EventCompletion> done;
    std::int64_t submit_nanos = 0;
    std::uint64_t covers = 0;  // events since the previous marker
    AckLog* sink = nullptr;
    std::uint64_t request = 0;
  };

  static CdrGenerator::Options GenOptions(std::uint64_t entities,
                                          std::uint64_t seed) {
    CdrGenerator::Options o;
    o.num_entities = entities;
    o.seed = seed;
    return o;
  }

  void SubmitBatch(std::uint32_t k, bool mark, AckLog* sink,
                   SpanLog* spans) {
    std::vector<EventMessage> msgs(k);
    for (EventMessage& msg : msgs) {
      BinaryWriter writer;
      gen_.Next(*ts_ += 10).Serialize(&writer);
      msg.bytes = writer.TakeBuffer();
    }
    Marker marker;
    if (mark) {
      marker.done = std::make_unique<EventCompletion>();
      marker.covers = since_marker_;
      marker.sink = sink;
      marker.request = ++requests_;
      msgs.back().completion = marker.done.get();
      since_marker_ = 0;
    }
    const std::int64_t t0 = MonotonicNanos();
    const std::size_t accepted = channel_->SubmitEventBatch(std::move(msgs));
    const std::int64_t t1 = MonotonicNanos();
    if (spans != nullptr) spans->Add({++requests_, "net.submit_batch", t0, t1});
    attempted_ += k;
    if (accepted < k) {
      // Refused events never complete; a refused marker takes the events
      // it covers with it.
      failed_ += mark ? marker.covers : k - accepted;
      return;
    }
    if (mark) {
      marker.submit_nanos = t0;
      outstanding_.push_back(std::move(marker));
    }
  }

  void Harvest(bool wait_front, SpanLog* spans) {
    while (!outstanding_.empty()) {
      Marker& m = outstanding_.front();
      if (!m.done->done.load(std::memory_order_acquire)) {
        if (!wait_front) return;
        // Short sleeps, not EventCompletion::WaitFor: that spins on yield,
        // and a spinning sender takes a core from the node threads it
        // measures. The TCP client fails a lost request at its own
        // deadline, so this wait always ends; the bound only guards
        // against a hung peer.
        const std::int64_t give_up = MonotonicNanos() + 60'000'000'000LL;
        while (!m.done->done.load(std::memory_order_acquire)) {
          AIM_CHECK_MSG(MonotonicNanos() < give_up, "event ack never arrived");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      wait_front = false;
      const std::int64_t now = MonotonicNanos();
      if (m.done->status.ok()) {
        acked_ += m.covers;
        if (m.sink != nullptr) {
          m.sink->latency_ms.push_back(
              static_cast<double>(now - m.submit_nanos) / 1e6);
          m.sink->acked.push_back({now, static_cast<double>(m.covers)});
        }
        if (spans != nullptr) {
          spans->Add({m.request, "event.ack", m.submit_nanos, now});
        }
      } else {
        failed_ += m.covers;
      }
      outstanding_.pop_front();
    }
  }

  NodeChannel* channel_;
  CdrGenerator gen_;
  Timestamp* ts_;
  std::deque<Marker> outstanding_;
  std::uint64_t since_marker_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t failed_ = 0;
};

/// Time for `n` events through `sender`, drained.
double TimedSend(Sender* sender, std::uint64_t n) {
  Stopwatch sw;
  sender->Send(n, 0, nullptr, nullptr);
  sender->Drain(nullptr, nullptr);
  return sw.ElapsedSeconds();
}

}  // namespace

void RunIngestDurable(const Args& args, std::uint64_t entities,
                      Report* report) {
  const std::string dir =
      args.work_dir + "/data_" + std::to_string(::getpid());
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  std::unique_ptr<StorageNode> node;
  for (int k = 0; k < setups; ++k) {
    node.reset();
    env.reset();
    RemoveDataDir(dir);
    Stopwatch total;
    env = std::make_unique<Env>(MakeEnv());
    node = BuildDurableNode(*env, dir, entities);
    setup_s.push_back(total.ElapsedSeconds());
  }
  MetricsRegistry& reg = node->metrics();
  const std::map<std::string, std::uint64_t> files_at_setup = ChainFiles(dir);

  LocalNodeChannel local(node.get());
  net::TcpServer::Options sopts;
  sopts.metrics = &reg;
  net::TcpServer server(&local, sopts);
  AIM_CHECK(server.Start().ok());
  net::TcpClient::Options copts;
  copts.port = server.port();
  copts.metrics = &reg;
  net::TcpClient client(copts);
  AIM_CHECK(client.Connect().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  Timestamp ts = 0;
  Sender sender(&client, entities, args.seed, &ts);
  sender.Send(kWarmEvents, 0, nullptr, nullptr);
  sender.Drain(nullptr, nullptr);
  const std::uint64_t warm_attempted = sender.attempted();
  const std::uint64_t warm_acked = sender.acked();

  SpanLog spans;
  AckLog acks;
  AtomicHistogram* fresh = NodeHistogram(reg, "aim_fresh_staleness_millis");
  const HistogramSnapshot fresh_before = fresh->Snapshot();
  RegistrySnapshot reg_before = TakeRegistrySnapshot(reg, endpoint, endpoint);
  const std::int64_t start = MonotonicNanos();
  double untraced_eps = 0;
  double traced_eps = 0;
  SpanLog* traced_spans = args.trace ? &spans : nullptr;
  if (args.trace) {
    // Untraced half, then traced half; each drained so its rate is exact.
    const auto half = static_cast<std::int64_t>(args.seconds / 2 * 1e9);
    std::uint64_t acked0 = sender.acked();
    sender.Send(0, start + half, &acks, nullptr);
    sender.Drain(&acks, nullptr);
    untraced_eps = (sender.acked() - acked0) /
                   (static_cast<double>(MonotonicNanos() - start) / 1e9);
    reg_before = TakeRegistrySnapshot(reg, endpoint, endpoint);
    const std::int64_t t1 = MonotonicNanos();
    acked0 = sender.acked();
    sender.Send(0, t1 + half, &acks, traced_spans);
    sender.Drain(&acks, traced_spans);
    traced_eps = (sender.acked() - acked0) /
                 (static_cast<double>(MonotonicNanos() - t1) / 1e9);
  } else {
    sender.Send(0, start + static_cast<std::int64_t>(args.seconds * 1e9),
                &acks, nullptr);
  }

  // Mid-run incremental checkpoint under load, then the fixed tail.
  const std::uint64_t want = node->checkpoints_completed() + kPartitions;
  double checkpoint_s = -1;
  Stopwatch ckpt_timer;
  node->RequestCheckpoint();
  auto poll = [&] {
    if (checkpoint_s < 0 && node->checkpoints_completed() >= want) {
      checkpoint_s = ckpt_timer.ElapsedSeconds();
    }
  };
  sender.Send(kTailEvents, 0, &acks, traced_spans, poll);
  sender.Drain(&acks, traced_spans);
  const std::uint64_t window_acked = sender.acked() - warm_acked;
  const RegistrySnapshot reg_after =
      TakeRegistrySnapshot(reg, endpoint, endpoint);
  const HistogramSnapshot fresh_after = fresh->Snapshot();
  while (checkpoint_s < 0 && ckpt_timer.ElapsedSeconds() < 120) {
    poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (checkpoint_s < 0) {
    report->Mismatch("checkpoint", "mid-run checkpoint never completed");
  }
  std::uint64_t checkpoint_bytes = 0;
  for (const auto& [path, size] : ChainFiles(dir)) {
    if (files_at_setup.count(path) == 0) checkpoint_bytes += size;
  }

  double net_overhead_us = 0;
  if (args.trace) {
    // The same credit-paced batches in-process and over TCP, alternating,
    // against this one node.
    Sender via_local(&local, entities, args.seed + 1, &ts);
    Sender via_tcp(&client, entities, args.seed + 2, &ts);
    std::vector<double> local_s;
    std::vector<double> tcp_s;
    for (int r = 0; r < 2; ++r) {
      local_s.push_back(TimedSend(&via_local, kOverheadEvents));
      tcp_s.push_back(TimedSend(&via_tcp, kOverheadEvents));
    }
    net_overhead_us = (Median(tcp_s) - Median(local_s)) / kOverheadEvents * 1e6;
    report->attempted += via_local.attempted() + via_tcp.attempted();
    report->failed += via_local.failed() + via_tcp.failed();
  }

  client.Close();
  server.Stop();
  node->Stop();
  std::vector<OracleCase> no_cases;
  const Digest at_stop = CheckStoppedNode(*env, *node, no_cases, false, report);
  const double skew = args.trace ? ScanSkew(*env, *node, args.seed) : 0;
  node.reset();

  // Recovery: constructor + Recover() + Start() on a fresh node, repeated
  // from the same directory (a recovered node that takes no events leaves
  // it as it found it); rto_s is the median.
  const int recoveries = args.trace ? 1 : 3;
  std::vector<double> rto;
  std::unique_ptr<StorageNode> recovered;
  StorageNode::RecoveryStats rec;
  for (int r = 0; r < recoveries; ++r) {
    recovered.reset();
    Stopwatch rto_timer;
    recovered = std::make_unique<StorageNode>(
        env->schema.get(), &env->dims.catalog, &env->rules,
        DurableOptions(dir));
    StatusOr<StorageNode::RecoveryStats> stats = recovered->Recover();
    AIM_CHECK_MSG(stats.ok(), "recovery failed: %s",
                  stats.status().ToString().c_str());
    AIM_CHECK(recovered->Start().ok());
    rto.push_back(rto_timer.ElapsedSeconds());
    rec = *stats;
    if (r + 1 < recoveries) recovered->Stop();
  }
  const double rto_s = Median(rto);
  std::printf("recovery: %llu checkpoint files, %llu records, %llu events "
              "replayed; median of %d in %.3f s\n",
              static_cast<unsigned long long>(rec.checkpoints_applied),
              static_cast<unsigned long long>(rec.records_restored),
              static_cast<unsigned long long>(rec.events_replayed),
              recoveries, rto_s);
  if (rec.cold_start || rec.events_replayed == 0) {
    report->Mismatch("recovery",
                     "recovery restored no checkpoint or replayed no log");
  }

  // The recovered node serves: seeded oracle queries, then a short
  // closed-loop query phase.
  WaitScanCycles(*recovered, 3);
  LocalNodeChannel recovered_channel(recovered.get());
  RtaFrontEnd front_end(std::vector<NodeChannel*>{&recovered_channel},
                        env->schema.get(), &env->dims.catalog);
  std::vector<OracleCase> cases;
  for (Query& q : OracleQueries(*env, args.seed)) {
    QueryResult live = front_end.Execute(q);
    cases.push_back({std::move(q), std::move(live)});
  }
  const double query_seconds = std::max(0.5, args.seconds / 4);
  std::vector<std::vector<double>> client_ms(kQueryClients);
  std::atomic<std::uint64_t> q_failed{0};
  std::vector<std::thread> clients;
  const std::int64_t q_start = MonotonicNanos();
  const std::int64_t q_end =
      q_start + static_cast<std::int64_t>(query_seconds * 1e9);
  for (int c = 0; c < kQueryClients; ++c) {
    clients.emplace_back([&, c] {
      QueryWorkload workload(env->schema.get(), &env->dims,
                             args.seed * 1000003 + static_cast<std::uint64_t>(c));
      while (MonotonicNanos() < q_end) {
        const Query q = workload.Next();
        const std::int64_t t0 = MonotonicNanos();
        const QueryResult r = front_end.Execute(q);
        if (!r.status.ok()) {
          q_failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        client_ms[c].push_back(static_cast<double>(MonotonicNanos() - t0) /
                               1e6);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double q_elapsed =
      static_cast<double>(MonotonicNanos() - q_start) / 1e9;
  recovered->Stop();
  Digest after = CheckStoppedNode(*env, *recovered, cases,
                                  args.plant == "oracle", report);
  if (args.plant == "digest") after.hash ^= 1;
  if (!(after == at_stop)) {
    report->Mismatch("digest",
                     "recovered digest differs from the digest at stop (" +
                         std::to_string(after.rows) + " vs " +
                         std::to_string(at_stop.rows) + " rows)");
  }
  recovered.reset();

  std::vector<double> query_ms;
  for (const std::vector<double>& v : client_ms) {
    query_ms.insert(query_ms.end(), v.begin(), v.end());
  }
  report->attempted += sender.attempted() - warm_attempted + cases.size() +
                       query_ms.size() + q_failed.load();
  report->failed += sender.failed() + q_failed.load();
  for (const OracleCase& oc : cases) report->failed += !oc.live.status.ok();
  std::printf("events: %llu sent in the window, %llu acked, %llu failed; "
              "%zu timed acks; %zu queries after recovery\n",
              static_cast<unsigned long long>(sender.attempted() -
                                              warm_attempted),
              static_cast<unsigned long long>(window_acked),
              static_cast<unsigned long long>(sender.failed()),
              acks.latency_ms.size(), query_ms.size());

  if (!args.trace) {
    report->E2e("setup_s", Median(setup_s), "s");
    report->E2e("query_p50_ms", Quantile(query_ms, 0.5), "ms");
    report->E2e("query_p99_ms", Quantile(query_ms, 0.99), "ms");
    report->E2e("query_qps", query_ms.size() / q_elapsed, "1/s");
    report->E2e("event_p50_ms", Quantile(acks.latency_ms, 0.5), "ms");
    report->E2e("event_eps", SlicedRate(acks.acked), "1/s");
    report->E2e("fresh_mean_ms", WindowMean(fresh_before, fresh_after), "ms");
    report->E2e("rto_s", rto_s, "s");
    report->E2e("rss_mb", PeakRssMb(), "MB");
    RemoveDataDir(dir);
    return;
  }

  // ---- traced run: per-layer metrics ----
  AddRegistryLayers(reg_before, reg_after, report);
  report->Layer("storage.checkpoint_s", checkpoint_s, "s");
  report->Layer("storage.checkpoint_bytes",
                static_cast<double>(checkpoint_bytes), "B");
  report->Layer("net.overhead_us_per_event", net_overhead_us, "us");
  report->Layer("rta.partition_skew", skew, "ratio");
  report->Layer("trace.overhead_pct",
                100.0 * Ratio(untraced_eps - traced_eps, untraced_eps), "%");
  // No open-loop schedule and no traced queries on this workload.
  report->Layer("gen.lag_ms_p99", 0, "ms");
  report->Layer("esp.event_p99_ms", Quantile(acks.latency_ms, 0.99), "ms");
  report->Layer("server.node_query_us_p50", 0, "us");
  report->Layer("server.node_query_us_p99", 0, "us");
  report->Layer("server.front_end_self_us", 0, "us");
  report->Layer("server.rta_queue_depth_mean", 0, "count");
  report->Layer("server.rta_queue_depth_max", 0, "count");
  report->Layer("server.esp_queue_depth_mean", 0, "count");
  report->Layer("server.esp_queue_depth_max", 0, "count");

  const std::string span_path = args.out_dir + "/spans_" + args.workload +
                                "_" + std::to_string(args.seed) + ".jsonl";
  if (spans.WriteJsonLines(span_path)) {
    std::printf("wrote %zu spans to %s\n", spans.size(), span_path.c_str());
  }

  // Restore the chain into fresh stores and replay each partition's log
  // from the chain tip, as Recover() does, timing the two halves apart.
  double restore_s = 0;
  double replay_s = 0;
  std::uint64_t replayed = 0;
  std::unique_ptr<DeltaMainStore> store0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    const std::string pdir = dir + "/p" + std::to_string(p);
    auto store = std::make_unique<DeltaMainStore>(env->schema.get(),
                                                  PartitionStoreOptions());
    Stopwatch restore_timer;
    StatusOr<checkpoint::ChainTip> tip =
        checkpoint::RecoverChain(pdir, store.get());
    restore_s += restore_timer.ElapsedSeconds();
    AIM_CHECK_MSG(tip.ok(), "chain restore: %s",
                  tip.status().ToString().c_str());
    {
      EspEngine engine(env->schema.get(), store.get(), &env->rules, env->sys,
                       EspEngine::Options{});
      std::vector<Event> batch;
      EspEngine::BatchResult result;
      Stopwatch replay_timer;
      StatusOr<EventLog::ReplayStats> stats = EventLog::Replay(
          pdir + "/events.log", tip->log_lsn,
          [&](EventLog::Lsn, std::span<const std::uint8_t> payload) {
            LogPayloadView view;
            if (!DecodeLogPayload(payload, &view).ok() ||
                view.kind != LogPayloadView::Kind::kEventBatch) {
              return;
            }
            batch.clear();
            for (std::uint32_t i = 0; i < view.event_count; ++i) {
              BinaryReader reader(
                  view.events.data() +
                      static_cast<std::size_t>(i) * view.event_size,
                  view.event_size);
              batch.push_back(Event::Deserialize(&reader));
            }
            engine.ProcessBatch(std::span<const Event>(batch), &result);
            replayed += batch.size();
          });
      replay_s += replay_timer.ElapsedSeconds();
      AIM_CHECK(stats.ok());
    }
    if (p == 0) store0 = std::move(store);
  }
  RemoveDataDir(dir);
  report->Layer("storage.restore_s", restore_s, "s");
  report->Layer("storage.replay_us_per_event",
                Ratio(replay_s * 1e6, static_cast<double>(replayed)), "us");
  ReplayLayers(*env, store0.get(), /*partition=*/0, entities, args.seed,
               report);
}

}  // namespace perfbench
}  // namespace aim
