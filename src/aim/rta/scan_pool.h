#ifndef AIM_RTA_SCAN_POOL_H_
#define AIM_RTA_SCAN_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aim/obs/registry.h"
#include "aim/rta/compiled_query.h"
#include "aim/rta/scan_task_board.h"

namespace aim {

/// Node-wide persistent scan executor (the task-queue model of paper §3.2):
/// a fixed set of worker threads, started once, onto which any number of
/// coordinators — typically the per-partition RTA threads — submit scan
/// *jobs*. A job decomposes one partition's scan step into bucket-range
/// morsels; workers and the submitting coordinator pull morsels from the
/// ScanTaskBoard (own deque first, then steal), each executing the batch's
/// shared, immutable QueryPlans into its own accumulators, and the
/// coordinator merges the per-executor PartialResults when the last morsel
/// completes. No threads are created per scan cycle, and one pool
/// load-balances all partitions: a skewed partition's morsels spill onto
/// whichever workers are idle.
///
/// The merge step stays with the coordinator (the partition's RTA thread):
/// delta-swap and checkpoint gating are per-partition protocols keyed to
/// that thread's cycle position, and merging mutates the main in place —
/// exactly the one-writer role the ColumnMap scan contract gives the
/// partition owner. The pool parallelizes only the read-only scan side.
///
/// Thread-compatibility: ScanPartition may be called concurrently from any
/// number of coordinator threads (each with its own job); Start/Stop are
/// not concurrent with ScanPartition.
class ScanPool {
 public:
  struct Options {
    /// Worker threads to start. 0 is valid: jobs still work, executed
    /// entirely by the submitting coordinator (the single-threaded path,
    /// minus thread churn).
    std::size_t num_threads = 0;
    /// Registry for morsel/steal counters and per-worker scan histograms;
    /// null disables instrumentation.
    MetricsRegistry* metrics = nullptr;
    /// "node" label value on this pool's metric series.
    std::string node_label = "local";
  };

  /// Per-job knobs.
  struct ScanOptions {
    /// Buckets per morsel. Small enough to steal-balance, large enough to
    /// amortize task acquisition (DESIGN.md "Scan parallelism").
    std::uint32_t morsel_buckets = 8;
    /// When false the coordinator only waits (test hook proving workers
    /// can carry a whole scan). Forced true when the pool has no workers.
    bool coordinator_participates = true;
  };

  /// What happened to one job — the cooperative-execution evidence.
  struct ScanStats {
    std::uint32_t morsels = 0;
    std::uint32_t executed_by_coordinator = 0;
    std::uint32_t executed_by_workers = 0;
    /// Morsel count per executor: [0, num_threads) are pool workers,
    /// [num_threads] is the coordinator (the §3.2 load-balance evidence).
    std::vector<std::uint32_t> per_executor;
  };

  explicit ScanPool(const Options& options);
  ~ScanPool();

  ScanPool(const ScanPool&) = delete;
  ScanPool& operator=(const ScanPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Executes the batch `plans` over every bucket of `main`, cooperatively
  /// with the pool workers; each executor that takes a morsel creates its
  /// own accumulators for the plans. Returns one merged PartialResult per
  /// plan in `*results` (sized/overwritten). The caller is the job's
  /// coordinator and blocks until its job is fully executed; `main` and
  /// `plans` must stay valid and unmodified for the duration.
  ScanStats ScanPartition(
      const ColumnMap& main,
      const std::vector<std::shared_ptr<const QueryPlan>>& plans,
      const ScanOptions& options, std::vector<PartialResult>* results);

  /// Total steals across the pool's lifetime (0 without a registry — the
  /// counter lives in the registry; tests read it from there or here).
  std::uint64_t steals() const;
  std::uint64_t morsels() const;

  /// Process-wide shared pool with hardware_concurrency()-1 workers, for
  /// callers without a node-owned pool.
  /// Created on first use, never destroyed (workers park on the board's
  /// condvar when idle).
  static ScanPool* Shared();

 private:
  using Board = ScanTaskBoard<>;

  struct ExecutorContext;
  struct Job;

  void WorkerLoop(std::size_t worker);
  static void ExecuteMorsel(Job* job, std::uint32_t seq,
                            ExecutorContext* ctx);

  Board board_;
  std::vector<std::thread> workers_;

  // Lifetime totals mirrored into the registry counters (null-safe).
  std::atomic<std::uint64_t> morsels_{0};
  std::atomic<std::uint64_t> steals_{0};

  Counter* morsels_total_ = nullptr;        // aim_scan_morsels_total
  Counter* steals_total_ = nullptr;         // aim_scan_steals_total
  std::vector<AtomicHistogram*> worker_scan_micros_;  // per worker
};

}  // namespace aim

#endif  // AIM_RTA_SCAN_POOL_H_
