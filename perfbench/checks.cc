// Correctness checks: seeded Q1..Q7 answers against RowQueryRun evaluated
// over a stopped node's visible rows, and the (entity, version, row) digest
// that recovery must reproduce. Plus the registry and partition helpers the
// workloads share.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "aim/common/crc32c.h"
#include "aim/common/hash.h"
#include "aim/common/logging.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/query_workload.h"
#include "bench.h"

namespace aim {
namespace perfbench {

std::vector<Query> OracleQueries(const Env& env, std::uint64_t seed) {
  QueryWorkload workload(env.schema.get(), &env.dims,
                         seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<Query> out;
  for (int round = 0; round < 2; ++round) {
    for (int q = 1; q <= 7; ++q) out.push_back(workload.Make(q));
  }
  return out;
}

namespace {

// Sums compare with a relative tolerance: the column scan and the row
// oracle add the same doubles in different orders.
bool Near(double got, double want) {
  if (std::isnan(got) || std::isnan(want)) {
    return std::isnan(got) && std::isnan(want);
  }
  if (got == want) return true;  // also equal infinities
  return std::abs(got - want) <=
         1e-6 * (1.0 + std::max(std::abs(got), std::abs(want)));
}

std::string CompareResults(const QueryResult& got, const QueryResult& want) {
  if (!got.status.ok()) return "live status " + got.status.ToString();
  if (got.rows.size() != want.rows.size()) {
    return "row count " + std::to_string(got.rows.size()) + " vs " +
           std::to_string(want.rows.size());
  }
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    if (got.rows[r].group_key != want.rows[r].group_key) {
      return "group key at row " + std::to_string(r);
    }
    if (got.rows[r].values.size() != want.rows[r].values.size()) {
      return "value count at row " + std::to_string(r);
    }
    for (std::size_t v = 0; v < want.rows[r].values.size(); ++v) {
      if (!Near(got.rows[r].values[v], want.rows[r].values[v])) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "row %zu value %zu: %.17g vs %.17g",
                      r, v, got.rows[r].values[v], want.rows[r].values[v]);
        return buf;
      }
    }
  }
  if (got.topk.size() != want.topk.size()) return "top-k target count";
  for (std::size_t t = 0; t < want.topk.size(); ++t) {
    if (got.topk[t].size() != want.topk[t].size()) {
      return "top-k size of target " + std::to_string(t);
    }
    // Entities may legitimately differ between equal values (ties).
    for (std::size_t k = 0; k < want.topk[t].size(); ++k) {
      if (!Near(got.topk[t][k].value, want.topk[t][k].value)) {
        return "top-k value of target " + std::to_string(t);
      }
    }
  }
  return "";
}

std::uint64_t RowHash(EntityId entity, Version version,
                      const std::uint8_t* row, std::size_t size) {
  const std::uint64_t crc = Crc32c(row, size);
  return Mix64(entity * 0x9e3779b97f4a7c15ULL ^
               Mix64(version ^ (crc << 32 | crc)));
}

const Labels& NodeLabels() {
  static const Labels labels = {{"node", "0"}};
  return labels;
}

}  // namespace

Digest CheckStoppedNode(const Env& env, const StorageNode& node,
                        std::vector<OracleCase>& cases, bool plant_wrong,
                        Report* report) {
  AIM_CHECK(!node.running());
  std::vector<RowQueryRun> runs(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Status st = RowQueryRun::Compile(cases[i].query, env.schema.get(),
                                           &env.dims.catalog, &runs[i]);
    AIM_CHECK_MSG(st.ok(), "oracle compile: %s", st.ToString().c_str());
  }
  Digest digest;
  const std::size_t record_size = env.schema->record_size();
  for (std::uint32_t p = 0; p < node.options().num_partitions; ++p) {
    node.partition(p).ForEachVisible(
        env.sys.entity_id,
        [&](EntityId entity, Version version, const std::uint8_t* row) {
          for (RowQueryRun& run : runs) {
            if (run.Matches(row)) run.Accumulate(row);
          }
          digest.hash += RowHash(entity, version, row, record_size);
          ++digest.rows;
        });
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    QueryResult want = runs[i].Finish();
    if (plant_wrong && i == 0 && !want.rows.empty() &&
        !want.rows[0].values.empty()) {
      want.rows[0].values[0] += 1.0 + std::abs(want.rows[0].values[0]);
    }
    const std::string diff = CompareResults(cases[i].live, want);
    if (!diff.empty()) {
      report->Mismatch("oracle",
                       "query " + std::to_string(i) + " (" +
                           cases[i].query.ToString(env.schema.get()) +
                           "): " + diff);
    }
  }
  return digest;
}

void WaitScanCycles(StorageNode& node, std::uint64_t cycles) {
  Counter* done = NodeCounter(node.metrics(), "aim_rta_scan_cycles_total");
  const std::uint64_t want = done->Value() + cycles;
  while (done->Value() < want) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Counter* NodeCounter(MetricsRegistry& m, const char* name) {
  return m.GetCounter(name, NodeLabels());
}

AtomicHistogram* NodeHistogram(MetricsRegistry& m, const char* name) {
  return m.GetHistogram(name, NodeLabels());
}

std::uint64_t PartitionCounterSum(MetricsRegistry& m, const char* name) {
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    sum += m.GetCounter(name, {{"node", "0"}, {"partition", std::to_string(p)}})
               ->Value();
  }
  return sum;
}

RegistrySnapshot TakeRegistrySnapshot(MetricsRegistry& m,
                                      const std::string& client_peer,
                                      const std::string& server_addr) {
  RegistrySnapshot s;
  s.queries = NodeCounter(m, "aim_rta_queries_total")->Value();
  s.scan_cycles = NodeCounter(m, "aim_rta_scan_cycles_total")->Value();
  s.records_merged = NodeCounter(m, "aim_store_records_merged_total")->Value();
  s.merges = PartitionCounterSum(m, "aim_store_merges_total");
  s.events = PartitionCounterSum(m, "aim_esp_events_total");
  s.rules_fired = PartitionCounterSum(m, "aim_esp_rules_fired_total");
  s.txn_conflicts = PartitionCounterSum(m, "aim_esp_txn_conflicts_total");
  s.log_bytes = NodeCounter(m, "aim_log_bytes_total")->Value();
  s.log_syncs = NodeCounter(m, "aim_log_syncs_total")->Value();
  s.morsels = NodeCounter(m, "aim_scan_morsels_total")->Value();
  s.steals = NodeCounter(m, "aim_scan_steals_total")->Value();
  s.rta_batch = NodeHistogram(m, "aim_rta_batch_size_queries")->Snapshot();
  s.esp_batch = NodeHistogram(m, "aim_esp_batch_size")->Snapshot();
  s.scan_micros = NodeHistogram(m, "aim_rta_scan_duration_micros")->Snapshot();
  s.merge_micros =
      NodeHistogram(m, "aim_store_merge_duration_micros")->Snapshot();
  s.log_sync_micros = NodeHistogram(m, "aim_log_sync_micros")->Snapshot();
  if (!client_peer.empty()) {
    const Labels client = {{"role", "client"}, {"peer", client_peer}};
    s.net_bytes_sent = m.GetCounter("aim_net_bytes_sent_total", client)->Value();
    s.net_timeouts = m.GetCounter("aim_net_timeouts_total", client)->Value();
    s.net_reconnects =
        m.GetCounter("aim_net_reconnects_total", client)->Value();
    s.net_frame_errors =
        m.GetCounter("aim_net_frame_errors_total", client)->Value();
    s.frames_coalesced =
        m.GetHistogram("aim_net_frames_coalesced", client)->Snapshot();
  }
  if (!server_addr.empty()) {
    const Labels server = {{"role", "server"}, {"addr", server_addr}};
    s.net_frame_errors +=
        m.GetCounter("aim_net_frame_errors_total", server)->Value();
  }
  return s;
}

void AddRegistryLayers(const RegistrySnapshot& a, const RegistrySnapshot& b,
                       Report* report) {
  const double events = static_cast<double>(b.events - a.events);
  report->Layer("server.queries_per_cycle",
                Ratio(static_cast<double>(b.queries - a.queries),
                      static_cast<double>(b.scan_cycles - a.scan_cycles)),
                "count");
  report->Layer("server.batch_size_mean", WindowMean(a.rta_batch, b.rta_batch),
                "count");
  report->Layer("server.esp_batch_size_mean",
                WindowMean(a.esp_batch, b.esp_batch), "count");
  report->Layer("rta.scan_cycle_us", WindowMean(a.scan_micros, b.scan_micros),
                "us");
  report->Layer("rta.morsels", static_cast<double>(b.morsels - a.morsels),
                "count");
  report->Layer("rta.steals", static_cast<double>(b.steals - a.steals),
                "count");
  report->Layer("esp.rules_fired_per_event",
                Ratio(static_cast<double>(b.rules_fired - a.rules_fired),
                      events),
                "ratio");
  report->Layer("esp.txn_conflicts_per_event",
                Ratio(static_cast<double>(b.txn_conflicts - a.txn_conflicts),
                      events),
                "ratio");
  report->Layer("storage.merge_us", WindowMean(a.merge_micros, b.merge_micros),
                "us");
  report->Layer("storage.frozen_delta_records",
                Ratio(static_cast<double>(b.records_merged - a.records_merged),
                      static_cast<double>(b.merges - a.merges)),
                "count");
  report->Layer("storage.log_bytes_per_event",
                Ratio(static_cast<double>(b.log_bytes - a.log_bytes), events),
                "B");
  report->Layer("storage.events_per_sync",
                Ratio(events, static_cast<double>(b.log_syncs - a.log_syncs)),
                "count");
  report->Layer("storage.log_sync_us",
                WindowMean(a.log_sync_micros, b.log_sync_micros), "us");
  report->Layer("net.frames_coalesced_mean",
                WindowMean(a.frames_coalesced, b.frames_coalesced), "count");
  report->Layer(
      "net.bytes_per_event",
      Ratio(static_cast<double>(b.net_bytes_sent - a.net_bytes_sent), events),
      "B");
  report->Layer("net.timeouts",
                static_cast<double>(b.net_timeouts - a.net_timeouts), "count");
  report->Layer("net.reconnects",
                static_cast<double>(b.net_reconnects - a.net_reconnects),
                "count");
  report->Layer("net.frame_errors",
                static_cast<double>(b.net_frame_errors - a.net_frame_errors),
                "count");
}

DeltaMainStore::Options PartitionStoreOptions() {
  const StorageNode::Options defaults;
  DeltaMainStore::Options o;
  o.bucket_size = defaults.bucket_size;
  o.max_records = defaults.max_records_per_partition;
  return o;
}

void LoadPartition(const Env& env, std::uint64_t entities,
                   std::uint32_t partition, DeltaMainStore* store) {
  std::vector<std::uint8_t> row(env.schema->record_size(), 0);
  for (EntityId e = 1; e <= entities; ++e) {
    if (PartitionHash(e, /*node_id=*/0, kPartitions) != partition) continue;
    std::fill(row.begin(), row.end(), 0);
    PopulateEntityProfile(*env.schema, env.dims, e, entities, row.data());
    AIM_CHECK(store->BulkInsert(e, row.data()).ok());
  }
}

}  // namespace perfbench
}  // namespace aim
