#ifndef AIM_ESP_FIRING_POLICY_H_
#define AIM_ESP_FIRING_POLICY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "aim/common/types.h"
#include "aim/esp/rule.h"

namespace aim {

/// Tracks per-(rule, entity) firing counts so that a rule fires at most
/// `policy.max_firings` times per tumbling `policy.window_ms` window for the
/// same entity (paper §2.2). State is only kept for (rule, entity) pairs
/// that actually fired, so memory stays proportional to firing volume, not
/// to #rules x #entities.
///
/// Not thread-safe; each ESP thread owns one tracker (entities are sticky to
/// one ESP thread, so per-thread state is exact).
class FiringPolicyTracker {
 public:
  /// Filters matched rules in place. On entry `matched` holds rule
  /// positions, as RuleProgram reports them; on exit it holds the ids of
  /// the rules that fire, in the same order: a rule whose policy suppresses
  /// this firing is dropped, an allowed firing is counted. `rule_ids[pos]`
  /// and `policies[pos]` describe the rule at position pos; `now` is the
  /// event timestamp.
  void Filter(std::span<const std::uint32_t> rule_ids,
              std::span<const FiringPolicy> policies, EntityId entity,
              Timestamp now, std::vector<std::uint32_t>* matched) {
    std::size_t out = 0;
    for (const std::uint32_t pos : *matched) {
      if (Allow(rule_ids[pos], policies[pos], entity, now)) {
        (*matched)[out++] = rule_ids[pos];
      }
    }
    matched->resize(out);
  }

  /// Decides a single firing. Public for unit tests.
  bool Allow(std::uint32_t rule_id, const FiringPolicy& policy,
             EntityId entity, Timestamp now) {
    if (policy.max_firings == 0) return true;  // unlimited
    const Timestamp window_start = WindowSpec::AlignDown(now, policy.window_ms);
    State& st = state_[Key(rule_id, entity)];
    if (st.window_start != window_start) {
      st.window_start = window_start;
      st.count = 0;
    }
    if (st.count >= policy.max_firings) return false;
    st.count++;
    return true;
  }

  bool Allow(const Rule& rule, EntityId entity, Timestamp now) {
    return Allow(rule.id, rule.policy, entity, now);
  }

  std::size_t tracked_pairs() const { return state_.size(); }

  /// Drops state for windows ending before `horizon` (periodic GC).
  void Expire(Timestamp horizon) {
    for (auto it = state_.begin(); it != state_.end();) {
      if (it->second.window_start < horizon) {
        it = state_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  struct State {
    Timestamp window_start = -1;
    std::uint32_t count = 0;
  };

  static std::uint64_t Key(std::uint32_t rule_id, EntityId entity) {
    // Entity ids in practice fit 40 bits; mix to be safe against collisions
    // between (rule, entity) pairs.
    return (static_cast<std::uint64_t>(rule_id) << 40) ^ entity;
  }

  std::unordered_map<std::uint64_t, State> state_;
};

}  // namespace aim

#endif  // AIM_ESP_FIRING_POLICY_H_
