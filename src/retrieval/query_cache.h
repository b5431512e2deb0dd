#ifndef SDTW_RETRIEVAL_QUERY_CACHE_H_
#define SDTW_RETRIEVAL_QUERY_CACHE_H_

/// \file query_cache.h
/// \brief Content-hash-keyed LRU cache of per-query derivatives.
///
/// Deriving a query's context (SeriesStats, salient SIFT features — see
/// QueryContext in scratch.h) is a pure function of the
/// query's sample values and the engine configuration. Serving traffic is
/// heavily repetitive — the same hot queries arrive again and again from
/// many clients — so a service front-end can skip the derivation entirely
/// for a repeated query by keying contexts on the query *content*:
///
///  * the key is a 64-bit FNV-1a hash over the length and the raw bit
///    patterns of the samples (ContentHash);
///  * every entry also stores a copy of the sample values, and a lookup
///    verifies them against the probe before returning — a hash collision
///    (or a bit-different series hashing alike, which FNV cannot produce,
///    but belt and braces) degrades to a miss, never to a wrong context;
///  * eviction is least-recently-used at a fixed entry capacity.
///
/// Correctness: a hit returns a context bit-identical to what a fresh
/// derivation would produce (same pure function, same inputs), so cached
/// and uncached execution of the same query yield bitwise-identical hits.
/// Thread-safe; every operation takes one internal lock (annotated
/// core::Mutex, checked under -DSDTW_THREAD_SAFETY=ON).

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "retrieval/scratch.h"
#include "ts/time_series.h"

namespace sdtw {
namespace retrieval {

/// 64-bit FNV-1a over the sample count and the raw IEEE-754 bit patterns
/// of the samples. Bitwise content identity: +0.0 and -0.0 hash apart
/// (they compare equal, so a lookup across them just misses — a lost
/// reuse opportunity, never an error).
std::uint64_t ContentHash(std::span<const double> values);

/// \brief Thread-safe LRU of query-content -> derived QueryContext.
class QueryDerivativeCache {
 public:
  /// Capacity 0 disables the cache: lookups miss without counting,
  /// inserts are dropped.
  explicit QueryDerivativeCache(std::size_t capacity);

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }

  /// The cached context of a query with exactly these sample values, or
  /// nullptr (counted as hit/miss). A hit refreshes the entry's recency.
  std::shared_ptr<const QueryContext> Lookup(const ts::TimeSeries& query)
      SDTW_EXCLUDES(mu_);

  /// Caches `context` as the derivation of `query` (the caller guarantees
  /// context == MakeQueryContext(query)), evicting the least recently
  /// used entry when full. Inserting over an existing entry with the same
  /// content hash replaces it.
  void Insert(const ts::TimeSeries& query,
              std::shared_ptr<const QueryContext> context)
      SDTW_EXCLUDES(mu_);

  /// \brief Monotone counters (all-time, not per-window).
  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
  };
  Counters counters() const SDTW_EXCLUDES(mu_);
  std::size_t size() const SDTW_EXCLUDES(mu_);

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<double> values;  // collision guard: verified on lookup
    std::shared_ptr<const QueryContext> context;
  };

  const std::size_t capacity_;
  mutable core::Mutex mu_;
  /// Front = most recently used; map points into the list.
  std::list<Entry> lru_ SDTW_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> by_hash_
      SDTW_GUARDED_BY(mu_);
  Counters counters_ SDTW_GUARDED_BY(mu_);
};

}  // namespace retrieval
}  // namespace sdtw

#endif  // SDTW_RETRIEVAL_QUERY_CACHE_H_
