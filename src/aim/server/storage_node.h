#ifndef AIM_SERVER_STORAGE_NODE_H_
#define AIM_SERVER_STORAGE_NODE_H_

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "aim/common/buffer_pool.h"
#include "aim/common/mpsc_queue.h"
#include "aim/common/status.h"
#include "aim/esp/esp_engine.h"
#include "aim/obs/freshness_tracer.h"
#include "aim/obs/kpi_monitor.h"
#include "aim/obs/registry.h"
#include "aim/net/message.h"
#include "aim/rta/compiled_query.h"
#include "aim/rta/dimension.h"
#include "aim/rta/scan_pool.h"
#include "aim/rta/shared_scan.h"
#include "aim/storage/delta_main.h"
#include "aim/storage/event_log.h"
#include "aim/storage/swap_handshake.h"

namespace aim {

/// One AIM storage server (paper §4.2 and Figure 8): hosts `n` data
/// partitions of the Analytics Matrix, each with its own delta-main store
/// and a dedicated RTA scan thread, plus `s` ESP service threads that own
/// the deltas of the partitions assigned to them (partition p is served by
/// ESP thread p mod s — the paper's k = n/s assignment).
///
/// Deployment matches the paper's measured configuration (§4.2 option b):
/// ESP processing runs on the storage node itself, receiving 64-byte events
/// instead of shipping 3 KB records over the network. Dimension tables and
/// the business rule set are replicated per node (§3.4).
///
/// RTA processing: incoming queries queue up; the scan threads batch them
/// (bounded by Options::max_query_batch), start each scan cycle together
/// (intra-node consistency, §4.8) and interleave merge steps between scans
/// (Figure 6). The coordinator thread merges the per-partition partials and
/// replies with one node-level partial per query.
class StorageNode {
 public:
  struct Options {
    NodeId node_id = 0;
    std::uint32_t num_partitions = 5;  // n: RTA scan threads
    std::uint32_t num_esp_threads = 1;  // s
    std::uint32_t bucket_size = ColumnMap::kDefaultBucketSize;
    std::uint64_t max_records_per_partition = 1u << 20;
    std::uint32_t max_query_batch = 8;
    /// How long the RTA coordinator waits for queries before running a
    /// merge-only cycle (bounds t_fresh when the query queue is empty).
    std::int64_t scan_poll_micros = 500;
    /// ESP idle poll interval (the service loop must keep reaching its
    /// checkpoint even without traffic, or delta switches would stall).
    std::int64_t esp_idle_micros = 100;
    /// Upper bound on events an ESP thread drains and hands to
    /// EspEngine::ProcessBatch per wakeup. Bounds both the latency any
    /// single event can hide behind and the time between delta-switch
    /// checkpoints under load (docs/DESIGN.md, "Ingest batching").
    std::uint32_t max_event_batch = 64;
    /// Workers in the node-wide scan pool. 0 (the default) keeps the
    /// original model — each partition's RTA thread scans alone. With
    /// N > 0 the node starts one persistent ScanPool of N workers and
    /// every partition's scan step is decomposed into bucket-range
    /// morsels executed cooperatively by the pool and the partition's
    /// RTA thread; the RTA thread still owns compilation, the partial
    /// merge, and the delta-merge/checkpoint protocol. Worthwhile only
    /// when cores outnumber partitions (docs/DESIGN.md, "Scan
    /// parallelism").
    std::uint32_t scan_pool_threads = 0;
    /// Buckets per scan-pool morsel (granularity of work stealing).
    std::uint32_t scan_morsel_buckets = 8;
    /// Registry the node's metrics live in. When null the node owns a
    /// private one. Series are distinguished by a node="<id>" label, so
    /// one registry can serve a whole cluster (see AimCluster).
    MetricsRegistry* metrics = nullptr;
    EspEngine::Options esp;

    /// Durability (docs/DURABILITY.md). With an empty `dir` the node runs
    /// exactly as before: no log, no checkpoints, no recovery.
    struct DurabilityOptions {
      /// Data directory. Each partition keeps its event log and checkpoint
      /// chain in `<dir>/p<partition>/`. Setting this requires calling
      /// Recover() before Start().
      std::string dir;
      /// Group-commit interval: how long event acknowledgements may be
      /// deferred so one fsync covers more appended batches. 0 syncs (and
      /// acks) at every ESP wakeup that appended something; idle wakeups
      /// always flush regardless, so the interval only batches under load.
      std::int64_t group_commit_micros = 0;
    };
    DurabilityOptions durability;
  };

  /// Legacy aggregate view over the registry-backed metrics (the registry
  /// is the source of truth; this struct exists for call sites that want
  /// the six headline numbers without naming metrics). Snapshot-on-read:
  /// fields may be mutually torn, each value is itself exact.
  struct NodeStats {
    std::uint64_t events_processed = 0;
    std::uint64_t txn_conflicts = 0;
    std::uint64_t rules_fired = 0;
    std::uint64_t queries_processed = 0;
    std::uint64_t scan_cycles = 0;
    std::uint64_t records_merged = 0;
  };

  /// All pointers must outlive the node. `rules` may be empty.
  StorageNode(const Schema* schema, const DimensionCatalog* dims,
              const std::vector<Rule>* rules, const Options& options);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  /// Pre-start bulk load of one entity (routes to its partition's main).
  Status BulkLoad(EntityId entity, const std::uint8_t* row);

  // ------------------------------------------------------------------
  // Durability (only with Options::durability.dir set).
  // ------------------------------------------------------------------

  bool durable() const { return !options_.durability.dir.empty(); }

  struct RecoveryStats {
    bool cold_start = true;  // no partition had a usable checkpoint or log
    std::uint64_t checkpoints_applied = 0;  // chain files restored
    std::uint64_t records_restored = 0;     // checkpoint records loaded
    std::uint64_t batches_replayed = 0;     // log records re-run
    std::uint64_t events_replayed = 0;
    std::uint64_t record_ops_replayed = 0;
    std::uint64_t tmp_files_swept = 0;      // orphaned *.tmp removed
  };

  /// Restores every partition from its checkpoint chain, replays each
  /// partition's event log from the chain tip's recorded offset through
  /// the partition's own ESP engine (replay order == original apply
  /// order), and opens the logs for appending (truncating torn tails).
  /// Must be called exactly once, before Start() and before any BulkLoad
  /// (cold start is reported, not populated: the caller bulk-loads and
  /// then writes the initial checkpoint via CheckpointNow()).
  StatusOr<RecoveryStats> Recover();

  /// Writes one checkpoint per partition with the threads stopped (initial
  /// checkpoint after a cold-start load; final checkpoint after Stop()).
  Status CheckpointNow();

  /// Asks every partition's RTA thread to write a checkpoint at its next
  /// safe point (between scan/merge cycles, serialized inside the ESP
  /// batch-boundary window). Returns immediately; track completion via
  /// checkpoints_completed().
  void RequestCheckpoint();

  /// Cumulative partition checkpoints committed since construction.
  std::uint64_t checkpoints_completed() const {
    return checkpoints_completed_.load(std::memory_order_acquire);
  }

  /// "<durability.dir>/p<partition>".
  std::string PartitionDir(std::uint32_t p) const;

  /// Starts the ESP service threads and RTA scan threads.
  Status Start();
  /// Stops and joins all threads. Pending queries get empty replies.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Enqueues a serialized event (64-byte wire format). Returns false after
  /// shutdown. `completion` may be null.
  bool SubmitEvent(std::vector<std::uint8_t> event_bytes,
                   EventCompletion* completion);

  /// Batched enqueue: splits `batch` into contiguous runs that route to
  /// the same ESP thread and admits each run with a single queue
  /// operation. Returns how many events were accepted — always a prefix
  /// of `batch` (on shutdown the remainder is neither queued nor
  /// completed, exactly like a false return from SubmitEvent).
  std::size_t SubmitEventBatch(std::vector<EventMessage>&& batch);

  /// Pool backing the node's event byte buffers: the ESP loops release
  /// processed 64-byte wire buffers here, and submit paths that serialize
  /// events (cluster ingest, benches) can Acquire to avoid a fresh
  /// allocation per event. Using it is optional — SubmitEvent accepts any
  /// vector.
  BufferPool& event_buffer_pool() { return event_buffers_; }

  /// Enqueues a serialized query; `reply` receives the node's serialized
  /// PartialResult (empty payload on shutdown).
  bool SubmitQuery(std::vector<std::uint8_t> query_bytes,
                   std::function<void(std::vector<std::uint8_t>&&)> reply);

  /// Record-level Get/Put service for a remote ESP tier (paper §4.2
  /// deployment option a). Routed to the entity's owning ESP service
  /// thread; must not be mixed with SubmitEvent traffic for the same
  /// entities (two writers would race).
  bool SubmitRecordRequest(RecordRequest request);

  /// Which partition an entity lives in (two-level routing, §4.8).
  std::uint32_t PartitionOf(EntityId entity) const;

  NodeStats stats() const;

  /// The registry carrying every metric of this node (always-on).
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Builds a live Table-4 SLA monitor over this node's metrics —
  /// including the traced (not inferred) t_fresh distribution. `entities`
  /// scales the f_ESP target (events per entity per hour). The returned
  /// monitor borrows the node's metrics; it must not outlive the node.
  KpiMonitor MakeKpiMonitor(std::uint64_t entities,
                            const KpiTargets& targets = {}) const;

  /// Appends this node's monitor inputs (for cluster-level aggregation).
  void CollectMonitorInputs(KpiMonitor::Inputs* inputs) const;

  const Options& options() const { return options_; }
  const Schema& schema() const { return *schema_; }
  const DeltaMainStore& partition(std::uint32_t p) const {
    return *partitions_[p];
  }
  std::uint64_t total_records() const;

 private:
  struct EspThreadState {
    MpscQueue<EventMessage> queue;
    MpscQueue<RecordRequest> record_queue;
    std::vector<std::uint32_t> owned_partitions;
    std::vector<std::unique_ptr<EspEngine>> engines;  // parallel to owned
    Gauge* queue_depth = nullptr;  // sampled periodically, not per event
    std::thread thread;
    // Durability: completions processed but awaiting their covering fsync
    // (ack-after-fsync), the per-engine append high-water marks one Sync
    // must reach (0 = nothing pending), and the last flush time the
    // group-commit interval is measured from.
    std::vector<EventCompletion*> pending_acks;
    std::vector<EventLog::Lsn> pending_sync_lsn;  // parallel to engines
    std::int64_t last_flush_nanos = 0;
  };

  void ServeRecordRequest(RecordRequest& request);
  /// Logs one successful record-service mutation and syncs before the
  /// caller sends the reply (the record tier's ack-after-fsync point).
  void LogRecordOp(std::uint32_t p, LogPayloadView::Kind kind,
                   const RecordRequest& request);
  /// Syncs every log with pending appends, then releases the deferred
  /// acknowledgements. The ack-after-fsync point: an event's submitter
  /// observes done only after the record holding it is durable.
  void FlushPendingAcks(EspThreadState* state);
  void ReplayPartitionLog(std::uint32_t p, std::uint64_t from,
                          RecoveryStats* stats);
  /// One partition's live checkpoint: serialize inside the ESP
  /// batch-boundary window, commit (fsync) outside it.
  void WritePartitionCheckpoint(std::uint32_t partition_id);

  void EspLoop(EspThreadState* state);
  void RtaLoop(std::uint32_t partition_id);

  // Coordinator-side batch management (RTA thread 0).
  void FillBatch();
  void MergeAndReply();

  const Schema* schema_;
  const DimensionCatalog* dims_;
  const std::vector<Rule>* rules_;
  Options options_;
  SystemAttrs sys_attrs_;

  std::vector<std::unique_ptr<DeltaMainStore>> partitions_;
  std::vector<std::unique_ptr<EspThreadState>> esp_threads_;
  std::vector<std::thread> rta_threads_;
  std::unique_ptr<ScanPool> scan_pool_;  // only with scan_pool_threads > 0

  // Durability state (sized only when durable()). The batch gate is a
  // second writer-quiescence handshake per partition, acknowledged only at
  // the ESP loop top — a point where every drained event is both applied
  // and appended, so a checkpoint serialized inside the gate's window is
  // exactly the effect of the log prefix [0, end_lsn) it records. (The
  // store's own handshake can park the writer mid-batch, where applied
  // state runs ahead of the log — fine for a delta swap, wrong for a
  // checkpoint cut.)
  std::vector<std::unique_ptr<EventLog>> logs_;               // per partition
  std::vector<std::unique_ptr<SwapHandshake<>>> batch_gates_;  // per partition
  bool recovered_ = false;
  std::atomic<std::uint64_t> checkpoint_seq_{0};
  std::atomic<std::uint64_t> checkpoints_completed_{0};

  MpscQueue<QueryMessage> query_queue_;

  // Per-round shared state (published by the coordinator between barriers).
  std::vector<QueryMessage> batch_;
  std::vector<Query> batch_queries_;
  // The batch's compiled plans, once per batch for every partition, and the
  // batch index of each (queries that fail to compile have no plan).
  std::vector<std::shared_ptr<const QueryPlan>> batch_plans_;
  std::vector<std::size_t> plan_for_;
  bool stop_round_ = false;
  // partials_[partition][query in batch]
  std::vector<std::vector<PartialResult>> partials_;

  std::unique_ptr<std::barrier<>> round_barrier_;

  std::atomic<bool> running_{false};

  // Registry-backed metrics (owned by options_.metrics or own_metrics_).
  // ESP-side counters live in the per-partition EspEngines; these are the
  // node-level series (see docs/OBSERVABILITY.md for the full catalogue).
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  BufferPool event_buffers_;
  AtomicHistogram* esp_event_latency_ = nullptr;   // micros, per event
  AtomicHistogram* esp_batch_size_ = nullptr;      // events per ESP wakeup
  Counter* queries_processed_ = nullptr;
  AtomicHistogram* rta_query_latency_ = nullptr;   // micros, queue->reply
  AtomicHistogram* rta_batch_size_ = nullptr;      // queries per scan cycle
  AtomicHistogram* rta_scan_duration_ = nullptr;   // micros, per partition
  Gauge* rta_queue_depth_ = nullptr;
  Counter* scan_cycles_ = nullptr;
  Counter* records_merged_ = nullptr;
  AtomicHistogram* freshness_millis_ = nullptr;    // traced t_fresh
  Counter* log_appends_ = nullptr;                 // log records written
  Counter* log_bytes_ = nullptr;                   // payload+header bytes
  Counter* log_syncs_ = nullptr;                   // group-commit fsyncs
  AtomicHistogram* log_sync_micros_ = nullptr;     // per flush
  Counter* checkpoints_written_ = nullptr;         // per partition commit
  std::vector<std::unique_ptr<FreshnessTracer>> tracers_;  // per partition
};

}  // namespace aim

#endif  // AIM_SERVER_STORAGE_NODE_H_
