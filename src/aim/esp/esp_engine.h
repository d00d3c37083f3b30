#ifndef AIM_ESP_ESP_ENGINE_H_
#define AIM_ESP_ESP_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "aim/common/status.h"
#include "aim/obs/registry.h"
#include "aim/esp/event.h"
#include "aim/esp/event_archive.h"
#include "aim/esp/firing_policy.h"
#include "aim/esp/rule.h"
#include "aim/esp/rule_index.h"
#include "aim/esp/rule_program.h"
#include "aim/esp/update_kernel.h"
#include "aim/storage/delta_main.h"

namespace aim {

/// Well-known raw attributes the ESP engine maintains besides the
/// indicators. Use kInvalidAttr for attributes a schema does not have.
struct SystemAttrs {
  std::uint16_t entity_id = kInvalidAttr;         // u64
  std::uint16_t last_event_ts = kInvalidAttr;     // i64
  std::uint16_t preferred_number = kInvalidAttr;  // u64 (kPreferred filter)
};

/// Event Stream Processing engine for one store partition (paper §2.2).
/// Per event it runs the single-row transaction of Algorithm 1 — Get,
/// update every attribute group via the compiled update program, Put with
/// conditional write, retry on conflict — and then evaluates the Business
/// Rules against the updated record (Algorithm 2 as a compiled RuleProgram,
/// or the rule index when enabled), applying firing policies.
///
/// One engine instance per ESP thread; not thread-safe (the paper dedicates
/// each entity to exactly one ESP thread, §4.6).
class EspEngine {
 public:
  struct Options {
    int max_txn_retries = 16;
    bool use_rule_index = false;
    /// Auto-create a fresh record when an event references an unknown
    /// entity (the benchmark pre-loads entities; this is the fallback).
    bool create_missing_entities = true;
    /// Keep an event archive (production-AIM feature, paper §7/footnote 1):
    /// every processed event is retained for `archive_retention_ms`,
    /// enabling exact sliding-window rebuilds and recovery-by-replay.
    bool keep_event_archive = false;
    Timestamp archive_retention_ms = kMillisPerWeek;
    /// Registry the engine's counters live in (one source of truth for
    /// monitoring — see docs/OBSERVABILITY.md). When null the engine owns
    /// a private registry, so stats() always works. `metric_labels`
    /// distinguishes engines sharing a registry (e.g. node/partition).
    MetricsRegistry* metrics = nullptr;
    Labels metric_labels;
    /// Group-prefetch lookahead for ProcessBatch: while event i is being
    /// applied, the hash-index slots for event i+prefetch_distance and the
    /// record bytes for event i+1 are prefetched (two-stage pipeline). 0
    /// disables prefetching (scalar batch). Pure hints — batch results are
    /// bit-identical to sequential ProcessEvent calls either way.
    int prefetch_distance = 8;
    /// Cap on per-record prefetch hints along the main (PAX) path, where
    /// every attribute lives on its own column line; the full 546-attribute
    /// schema would otherwise flood the prefetch queue.
    std::uint32_t prefetch_main_lines = 16;
  };

  /// Per-event results of ProcessBatch. Reused across batches: Reset keeps
  /// the vectors' capacity, so steady-state batches allocate nothing.
  struct BatchResult {
    std::vector<Status> statuses;
    std::vector<std::vector<std::uint32_t>> fired;

    void Reset(std::size_t n) {
      statuses.assign(n, Status::OK());
      if (fired.size() < n) fired.resize(n);
      for (std::size_t i = 0; i < n; ++i) fired[i].clear();
    }
  };

  /// Monitoring snapshot of the engine's registry-backed counters. The
  /// counters are atomics updated only by the owning ESP thread; any
  /// thread may take a snapshot concurrently (values may be mutually torn
  /// across fields — monitoring semantics).
  struct Stats {
    std::uint64_t events_processed = 0;
    std::uint64_t txn_conflicts = 0;
    std::uint64_t rules_fired = 0;
    std::uint64_t rules_suppressed = 0;  // by firing policy
    std::uint64_t entities_created = 0;
  };

  /// All pointers must outlive the engine. `rules` may be empty.
  EspEngine(const Schema* schema, DeltaMainStore* store,
            const std::vector<Rule>* rules, const SystemAttrs& sys,
            const Options& options);

  /// Processes one event end-to-end. Appends ids of fired rules (after
  /// policy filtering) to `fired` (cleared first; may be nullptr).
  Status ProcessEvent(const Event& event, std::vector<std::uint32_t>* fired);

  /// Processes `events` in order with software group-prefetching: the
  /// dependent probe chain of event i+prefetch_distance (delta DenseMap
  /// slots, main ColumnMap index) and the record bytes of event i+1 are
  /// prefetched while event i runs its single-row transaction and rule
  /// evaluation. Per-event semantics, ordering and conflict accounting are
  /// exactly those of N sequential ProcessEvent calls (single-writer
  /// discipline unchanged; prefetches are pure hints). Results land in
  /// `result` (Reset first; one status + fired-rule set per event).
  void ProcessBatch(std::span<const Event> events, BatchResult* result);

  Stats stats() const;
  const UpdateProgram& program() const { return program_; }

  /// The engine's live counters (registry-owned; valid for the registry's
  /// lifetime). Exposed so node- and cluster-level monitors can aggregate
  /// without re-deriving metric names.
  const Counter* metric_events() const { return events_; }
  const Counter* metric_txn_conflicts() const { return txn_conflicts_; }
  const Counter* metric_rules_fired() const { return rules_fired_; }

  /// Switches between indexed and compiled rule evaluation. The index is
  /// built on first use.
  void set_use_rule_index(bool use);

  /// The event archive (null unless Options::keep_event_archive).
  const EventArchive* archive() const { return archive_.get(); }

 private:
  void InitFreshRecord(EntityId entity, const Event& event);

  /// The shared per-event body of ProcessEvent/ProcessBatch (checkpoint,
  /// single-row transaction, rule evaluation).
  Status ProcessOne(const Event& event, std::vector<std::uint32_t>* fired);

  /// Adds the predicates evaluated since the last flush to the counter:
  /// one Add per ProcessEvent/ProcessBatch call, none per event.
  void FlushPredicates();

  const Schema* schema_;
  DeltaMainStore* store_;
  const std::vector<Rule>* rules_;
  SystemAttrs sys_;
  Options options_;

  UpdateProgram program_;
  RuleProgram rule_program_;
  std::unique_ptr<EventArchive> archive_;
  std::unique_ptr<RuleIndex> rule_index_;  // only once use_rule_index
  RuleIndex::Scratch index_scratch_;
  FiringPolicyTracker policy_tracker_;

  std::vector<std::uint8_t> row_buf_;
  std::vector<std::uint32_t> matched_buf_;
  std::uint64_t pending_predicates_ = 0;  // flushed once per call

  // Registry-backed counters (owned by options_.metrics or own_metrics_).
  std::unique_ptr<MetricsRegistry> own_metrics_;
  Counter* events_;
  Counter* txn_conflicts_;
  Counter* rules_fired_;
  Counter* rules_suppressed_;
  Counter* rule_predicates_;
  Counter* entities_created_;
};

}  // namespace aim

#endif  // AIM_ESP_ESP_ENGINE_H_
