#pragma once

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

/// \file lru_map.hpp
/// The synchronized LRU map behind both of the Analyzer's session caches: a
/// bounded map from string cache keys to values that evicts the least
/// recently used entries past its capacity.  One mutex guards each map;
/// the module cache's callers copy the model outside the lock, so engine
/// workers hold it only for the map insert.

namespace imcdft {

/// A mutex-guarded LRU map from string keys to copyable values.  get()
/// refreshes recency; put() evicts from the cold end while over capacity
/// and reports how many entries it dropped, so callers can keep eviction
/// counters.  A capacity of 0 means unbounded.
template <class V>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : cap_(capacity) {}

  std::optional<V> get(std::string_view key) {
    std::lock_guard<std::mutex> lock(m_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites; returns the number of entries evicted.
  std::size_t put(std::string key, V value) {
    std::lock_guard<std::mutex> lock(m_);
    auto it = index_.find(std::string_view(key));
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return 0;
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(std::string_view(order_.front().first), order_.begin());
    std::size_t evicted = 0;
    while (cap_ != 0 && order_.size() > cap_) {
      index_.erase(std::string_view(order_.back().first));
      order_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(m_);
    return order_.size();
  }

 private:
  using Entry = std::pair<std::string, V>;

  mutable std::mutex m_;
  std::size_t cap_;
  std::list<Entry> order_;  ///< front = most recently used
  /// Views into the list nodes' key strings (stable across splices).
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      index_;
};

}  // namespace imcdft
