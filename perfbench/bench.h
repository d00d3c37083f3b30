#ifndef AIM_PERFBENCH_BENCH_H_
#define AIM_PERFBENCH_BENCH_H_

// Shared pieces of the AIM benchmark driver: command-line arguments, the
// seeded environment (schema, dimensions, rules), the report every workload
// fills, exact sample statistics and the in-memory span log of traced runs.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aim/baselines/row_query.h"
#include "aim/common/clock.h"
#include "aim/esp/rule.h"
#include "aim/obs/registry.h"
#include "aim/rta/partial_result.h"
#include "aim/rta/query.h"
#include "aim/schema/schema.h"
#include "aim/server/storage_node.h"
#include "aim/workload/dimension_data.h"

namespace aim {
namespace perfbench {

/// Deployment shape shared by every workload: one storage node, 2
/// partitions, 1 ESP thread, the full 546-indicator schema and 300 rules.
inline constexpr std::uint32_t kPartitions = 2;
inline constexpr std::uint32_t kEspThreads = 1;
inline constexpr std::size_t kRules = 300;
/// Closed-loop query clients on every workload that queries.
inline constexpr int kQueryClients = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scale override (0 = the workload's own scale); the self-test uses it.
  std::uint64_t entities = 0;
  /// Deliberately corrupts one expected answer ("oracle") or the recovered
  /// digest ("digest") so the self-test can prove the checks trip.
  std::string plant;
  /// Scratch directory for durable data; output directory for span logs.
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/out";
};

/// Schema, dimension tables and rule set (the seeded rule generator runs
/// with a fixed seed: rules are deployment, not workload input).
struct Env {
  std::unique_ptr<Schema> schema;
  BenchmarkDims dims;
  std::vector<Rule> rules;
  SystemAttrs sys;
};
Env MakeEnv();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// "[kind] what": the kind names the check that failed ("oracle",
  /// "digest", "recovery", "checkpoint" or "events").
  std::vector<std::string> mismatches;

  void E2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    layers.push_back({name, v, unit});
  }
  void Mismatch(const std::string& kind, const std::string& what) {
    correct = false;
    mismatches.push_back("[" + kind + "] " + what);
  }
};

// ---------------------------------------------------------------------------
// Exact statistics over raw samples (no histogram buckets).
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place), q in [0,1].
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Mean of the samples a histogram received between two snapshots. Only
/// the exact sum and count are used: registry percentiles are bucketed.
inline double WindowMean(const HistogramSnapshot& before,
                         const HistogramSnapshot& after) {
  const std::uint64_t n = after.count - before.count;
  return n == 0 ? 0 : (after.sum - before.sum) / static_cast<double>(n);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Traced runs: spans recorded around public calls, kept in memory and
// written out as JSON lines when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t request = 0;  // spans of one request share this id
  const char* name = "";
  std::int64_t start_nanos = 0;
  std::int64_t end_nanos = 0;
};

class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsMicros(const char* name) const;
  bool WriteJsonLines(const std::string& path) const;
  std::vector<Span> Copy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Correctness checks (checks.cc).
// ---------------------------------------------------------------------------

/// One seeded oracle query and the answer the live system gave.
struct OracleCase {
  Query query;
  QueryResult live;
};

/// 2 seeded instances of each of Q1..Q7.
std::vector<Query> OracleQueries(const Env& env, std::uint64_t seed);

/// Order-independent digest of a stopped node's visible
/// (entity, version, row) triples, plus the row count.
struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t rows = 0;
  bool operator==(const Digest& o) const {
    return hash == o.hash && rows == o.rows;
  }
};

/// One pass over the stopped node's visible rows: evaluates every case with
/// RowQueryRun and compares against its live answer (float aggregates with
/// a relative tolerance), and returns the node's digest. Mismatches go to
/// `report`. With `plant_wrong` the first expected value is corrupted.
Digest CheckStoppedNode(const Env& env, const StorageNode& node,
                        std::vector<OracleCase>& cases, bool plant_wrong,
                        Report* report);

/// Waits until the node has completed `cycles` more RTA scan cycles (each
/// ends with a merge step), so every applied event is in the main.
void WaitScanCycles(StorageNode& node, std::uint64_t cycles);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

void RunHtap(const Args& args, std::uint64_t entities, double eps,
             Report* report);
void RunIngestDurable(const Args& args, std::uint64_t entities,
                      Report* report);

/// Per-layer "replay" metrics: single-threaded calls on a standalone
/// partition `store` (stopped; no other thread touches it) holding the
/// workload's profiles. `entities` is the workload scale; the replayed
/// event stream is drawn from it and filtered to the store's entities.
void ReplayLayers(const Env& env, DeltaMainStore* store,
                  std::uint32_t partition, std::uint64_t entities,
                  std::uint64_t seed, Report* report);

/// Store options of one node partition at the library defaults.
DeltaMainStore::Options PartitionStoreOptions();

/// Bulk-loads every entity of `partition` (of kPartitions) into `store`.
void LoadPartition(const Env& env, std::uint64_t entities,
                   std::uint32_t partition, DeltaMainStore* store);

/// Per-partition scan time of one Q1..Q7 batch on a stopped node: slowest
/// over fastest partition, i.e. what the round barrier makes the others
/// wait for.
double ScanSkew(const Env& env, const StorageNode& node, std::uint64_t seed);

/// Registry series of node 0, read by name.
Counter* NodeCounter(MetricsRegistry& m, const char* name);
AtomicHistogram* NodeHistogram(MetricsRegistry& m, const char* name);
/// Sum of a per-partition counter over the node's partitions.
std::uint64_t PartitionCounterSum(MetricsRegistry& m, const char* name);

/// Cumulative values of every registry series a per-layer metric
/// differences over a window. The net series are the TCP client's
/// (`client_peer` "host:port") and server's (`server_addr`); empty strings
/// leave them zero.
struct RegistrySnapshot {
  std::uint64_t queries = 0;
  std::uint64_t scan_cycles = 0;
  std::uint64_t records_merged = 0;
  std::uint64_t merges = 0;
  std::uint64_t events = 0;
  std::uint64_t rules_fired = 0;
  std::uint64_t txn_conflicts = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t log_syncs = 0;
  std::uint64_t morsels = 0;
  std::uint64_t steals = 0;
  std::uint64_t net_bytes_sent = 0;
  std::uint64_t net_timeouts = 0;
  std::uint64_t net_reconnects = 0;
  std::uint64_t net_frame_errors = 0;
  HistogramSnapshot rta_batch;
  HistogramSnapshot esp_batch;
  HistogramSnapshot scan_micros;
  HistogramSnapshot merge_micros;
  HistogramSnapshot log_sync_micros;
  HistogramSnapshot frames_coalesced;
};
RegistrySnapshot TakeRegistrySnapshot(MetricsRegistry& m,
                                      const std::string& client_peer,
                                      const std::string& server_addr);
/// The per-layer metrics that are registry differences between `a` and `b`.
void AddRegistryLayers(const RegistrySnapshot& a, const RegistrySnapshot& b,
                       Report* report);

}  // namespace perfbench
}  // namespace aim

#endif  // AIM_PERFBENCH_BENCH_H_
