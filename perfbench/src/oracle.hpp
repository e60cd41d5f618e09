#pragma once
// The benchmark's independent model of the map. A sequential std::map
// replay of each client's operations gives every expected status and
// value; the union of the replays gives the expected final contents. None
// of this uses program code beyond the operation and result types.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/ops.hpp"

namespace perfbench {

using K = std::uint64_t;
using V = std::uint64_t;
using Op = pwss::core::Op<K, V>;
using Result = pwss::core::Result<V, K>;
using pwss::core::OpType;
using Status = pwss::core::ResultStatus;

/// The preloaded key set: n distinct keys derived from the seed, each
/// preloaded with a value derived from its key.
class Universe {
 public:
  Universe(std::uint64_t seed, std::size_t n) : salt_(fmix64(seed ^ 0x5bd1e995)) {
    keys_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) keys_.push_back(fmix64(i + salt_));
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  std::size_t size() const { return keys_.size(); }
  /// The i-th key in generation (preload) order.
  K key(std::size_t i) const { return keys_[i]; }
  const std::vector<K>& keys() const { return keys_; }
  bool contains(K k) const {
    return std::binary_search(sorted_.begin(), sorted_.end(), k);
  }
  V preload_value(K k) const { return fmix64(k ^ salt_) | 1; }
  const std::vector<K>& sorted() const { return sorted_; }

 private:
  std::uint64_t salt_;
  std::vector<K> keys_;
  std::vector<K> sorted_;
};

/// Expected contents of a map: the universe's preload, overridden by the
/// recorded changes (nullopt = erased).
class State {
 public:
  explicit State(const Universe& u) : u_(&u) {}

  std::optional<V> lookup(K k) const {
    const auto it = changed_.find(k);
    if (it != changed_.end()) return it->second;
    if (u_->contains(k)) return u_->preload_value(k);
    return std::nullopt;
  }
  /// Folds in the changes of sessions whose key sets are disjoint.
  void absorb(const std::map<K, std::optional<V>>& overlay) {
    for (const auto& [k, v] : overlay) changed_[k] = v;
  }
  std::vector<std::pair<K, V>> contents() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(u_->size() + changed_.size());
    auto c = changed_.begin();
    for (const K k : u_->sorted()) {
      for (; c != changed_.end() && c->first < k; ++c) {
        if (c->second) out.emplace_back(c->first, *c->second);
      }
      if (c != changed_.end() && c->first == k) {
        if (c->second) out.emplace_back(k, *c->second);
        ++c;
      } else {
        out.emplace_back(k, u_->preload_value(k));
      }
    }
    for (; c != changed_.end(); ++c) {
      if (c->second) out.emplace_back(c->first, *c->second);
    }
    return out;
  }

 private:
  const Universe* u_;
  std::map<K, std::optional<V>> changed_;
};

/// What a sequential map returns for `op` when the key held `before`.
inline Result expected_result(const Op& op, const std::optional<V>& before) {
  Result r;
  switch (op.type) {
    case OpType::kSearch:
      r.status = before ? Status::kFound : Status::kNotFound;
      r.value = before;
      break;
    case OpType::kInsert:
    case OpType::kUpsert:
      r.status = before ? Status::kUpdated : Status::kInserted;
      break;
    case OpType::kErase:
      r.status = before ? Status::kErased : Status::kNotFound;
      r.value = before;
      break;
    default:
      break;
  }
  return r;
}

/// "" when `got` is the result a sequential map gives for `op` with the key
/// holding `before`, else what differs. Status always counts; the value
/// counts for searches and erases (an upsert returns none).
inline std::string check_result(const Op& op, const std::optional<V>& before,
                                const Result& got) {
  const Result want = expected_result(op, before);
  if (got.status != want.status) {
    return "key " + std::to_string(op.key) + ": status " +
           std::to_string(static_cast<int>(got.status)) + ", expected " +
           std::to_string(static_cast<int>(want.status));
  }
  if (op.type != OpType::kUpsert && op.type != OpType::kInsert &&
      got.value != want.value) {
    return "key " + std::to_string(op.key) + ": value " +
           (got.value ? std::to_string(*got.value) : "none") + ", expected " +
           (want.value ? std::to_string(*want.value) : "none");
  }
  return "";
}

/// "" when the map's final contents equal the expected ones.
inline std::string check_contents(const std::vector<std::pair<K, V>>& want,
                                  const std::vector<std::pair<K, V>>& got) {
  if (got.size() != want.size()) {
    return "final contents hold " + std::to_string(got.size()) +
           " entries, expected " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      return "final entry " + std::to_string(i) + " is (" +
             std::to_string(got[i].first) + ", " +
             std::to_string(got[i].second) + "), expected (" +
             std::to_string(want[i].first) + ", " +
             std::to_string(want[i].second) + ")";
    }
  }
  return "";
}

/// One client's model: a sequential replay of the ops it completed, on
/// top of a State that no other client changes on this client's keys.
class Oracle {
 public:
  explicit Oracle(const State& base) : base_(&base) {}

  /// Checks `got` for `op` and applies the op; "" when it matches. An op
  /// that ended in an error status did not execute and changes nothing.
  std::string apply(const Op& op, const Result& got) {
    if (got.is_error()) return "";
    auto it = overlay_.find(op.key);
    const std::optional<V> before =
        it != overlay_.end() ? it->second : base_->lookup(op.key);
    std::string why = check_result(op, before, got);
    if (op.type == OpType::kUpsert || op.type == OpType::kInsert) {
      overlay_[op.key] = op.value;
    } else if (op.type == OpType::kErase && before) {
      overlay_[op.key] = std::nullopt;
    }
    return why;
  }
  const std::map<K, std::optional<V>>& overlay() const { return overlay_; }

 private:
  const State* base_;
  std::map<K, std::optional<V>> overlay_;
};

}  // namespace perfbench
