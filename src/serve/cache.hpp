// Content-addressed artifact cache of the rrsn_serve daemon.
//
// Every artifact the analysis pipeline derives from a netlist is a pure
// function of immutable inputs, so artifacts are interned once under a
// key (fingerprint, kind) — the FNV-1a fingerprint of the content the
// artifact was derived from, plus a kind string naming the pipeline
// stage ("network", "flat", "lint", "analyze:<seed>:<top>", ...).
//
// FNV-1a is not collision-free (support/hash.hpp), so a lookup may pass
// a *verifier*: a predicate over the cached value that confirms the
// entry really was derived from the caller's content (e.g. comparing
// the interned raw netlist text).  A verifier rejection counts as a
// collision, evicts the impostor and reports a miss — correctness never
// rests on 64-bit hashes alone.
//
// Eviction is least-recently-used under a byte budget: every entry
// carries an approximate byte weight, and inserting past the budget
// evicts from the cold end (never the entry just inserted).  All
// operations are mutex-serialized — lookups return shared_ptr values,
// so evicting an entry never invalidates a reader that already holds
// it.
//
// FlatStore is the disk tier for FlatNetwork arenas specifically: the
// serialized, fingerprinted PR 8 arena format is written next to the
// daemon once per design (<cacheDir>/<fingerprint>.rrsnflat, atomic
// tmp+fsync+rename) and re-adopted zero-copy via mmap on later loads —
// including by later daemon processes.  A mapped arena is cross-checked
// against the network (entity counts + on-load fingerprint validation);
// any mismatch discards the file and re-lowers from the Network.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "rsn/flat.hpp"
#include "rsn/network.hpp"

namespace rrsn::serve {

/// LRU byte-budget cache of type-erased shared artifacts.
class ArtifactCache {
 public:
  /// `byteBudget` bounds the sum of entry weights (0 = unbounded).
  explicit ArtifactCache(std::size_t byteBudget) : byteBudget_(byteBudget) {}

  /// Confirms a candidate hit really matches the caller's content;
  /// returning false classifies the entry as a fingerprint collision.
  using Verifier = std::function<bool(const std::shared_ptr<const void>&)>;

  /// Looks up (fingerprint, kind); null on miss.  A hit moves the entry
  /// to the hot end.  When `verify` is given and rejects the entry, the
  /// impostor is erased and null is returned (counted as a collision
  /// *and* a miss).
  std::shared_ptr<const void> get(std::uint64_t fingerprint,
                                  const std::string& kind,
                                  const Verifier& verify = nullptr);

  /// Interns `value` with weight `bytes`, then evicts cold entries
  /// until the budget holds again (the fresh entry is never evicted).
  /// Re-inserting an existing key replaces the value.
  void put(std::uint64_t fingerprint, const std::string& kind,
           std::shared_ptr<const void> value, std::size_t bytes);

  /// Typed convenience wrapper over get().
  template <typename T>
  std::shared_ptr<const T> getAs(std::uint64_t fingerprint,
                                 const std::string& kind,
                                 const Verifier& verify = nullptr) {
    return std::static_pointer_cast<const T>(get(fingerprint, kind, verify));
  }

  /// Produces (value, approx byte weight) on a miss.
  using Compute =
      std::function<std::pair<std::shared_ptr<const void>, std::size_t>()>;

  /// get() with *coalesced* miss computation: the first thread to miss
  /// on (fingerprint, kind) runs `compute` (outside the cache lock) and
  /// interns the result; any thread that misses the same key while that
  /// computation is in flight waits for it instead of redundantly
  /// recomputing (counted in Stats::coalesced).  A compute exception
  /// propagates to the computing thread *and* every coalesced waiter;
  /// nothing is cached.  When `verify` rejects the winner's value
  /// (fingerprint collision between different contents), the rejecting
  /// caller computes its own — collision handling never rests on the
  /// coalescing tier.
  std::shared_ptr<const void> getOrCompute(std::uint64_t fingerprint,
                                           const std::string& kind,
                                           const Compute& compute,
                                           const Verifier& verify = nullptr);

  /// Typed convenience wrapper over getOrCompute().
  template <typename T, typename Fn>
  std::shared_ptr<const T> getOrComputeAs(std::uint64_t fingerprint,
                                          const std::string& kind, Fn&& fn,
                                          const Verifier& verify = nullptr) {
    const Compute compute =
        [&fn]() -> std::pair<std::shared_ptr<const void>, std::size_t> {
      std::pair<std::shared_ptr<const T>, std::size_t> r = fn();
      return {std::move(r.first), r.second};
    };
    return std::static_pointer_cast<const T>(
        getOrCompute(fingerprint, kind, compute, verify));
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t collisions = 0;
    std::uint64_t coalesced = 0;  ///< misses served by an in-flight compute
    std::size_t bytes = 0;
    std::size_t entries = 0;
    std::size_t byteBudget = 0;

    double hitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Stats stats() const;

  /// Drops every entry (stats counters keep accumulating).
  void clear();

 private:
  struct Key {
    std::uint64_t fingerprint;
    std::string kind;
    bool operator<(const Key& o) const {
      return fingerprint != o.fingerprint ? fingerprint < o.fingerprint
                                          : kind < o.kind;
    }
  };
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<Key>::iterator lruIt;  ///< position in lru_ (hot = front)
  };

  void evictToBudgetLocked(const Key& keep);

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< most recently used first
  /// Pending compute per key: coalesced waiters block on the shared
  /// future outside the lock.
  std::map<Key, std::shared_future<std::shared_ptr<const void>>> inflight_;
  std::size_t bytes_ = 0;
  std::size_t byteBudget_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, collisions_ = 0,
                coalesced_ = 0;
};

/// Disk tier for FlatNetwork arenas (mmap adopt path).
class FlatStore {
 public:
  /// `dir` receives one `<fingerprint>.rrsnflat` file per design; an
  /// empty dir disables the disk tier (every load lowers in-process).
  explicit FlatStore(std::string dir) : dir_(std::move(dir)) {}

  /// Returns the flat view of `net`, preferring (in order): an arena
  /// file mapped zero-copy from the disk tier, else a fresh in-process
  /// lowering whose serialized bytes are then published to the disk
  /// tier and *re-adopted via mmap* (so the steady state always serves
  /// from the mapping and the write path is proven readable
  /// immediately).  `contentFingerprint` keys the file name — the FNV
  /// of the canonical netlist text, same family as campaign
  /// checkpoints.  Falls back to the in-process lowering on any disk or
  /// validation problem; never throws for cache-tier reasons.
  std::shared_ptr<const rsn::FlatNetwork> loadOrLower(
      std::uint64_t contentFingerprint, const rsn::Network& net);

  struct Stats {
    std::uint64_t mapHits = 0;    ///< served from an existing arena file
    std::uint64_t lowers = 0;     ///< lowered in-process
    std::uint64_t published = 0;  ///< arena files written
    std::uint64_t rejected = 0;   ///< stale/corrupt files discarded
  };
  Stats stats() const;

 private:
  std::string arenaPath(std::uint64_t contentFingerprint) const;

  /// The mapped arena must describe *this* network: entity counts are
  /// re-checked against the model (the header fingerprint only proves
  /// internal consistency, not identity — a stale file for an edited
  /// design with equal counts is caught by the caller's content
  /// verifier on the "network" cache entry instead).
  static bool describes(const rsn::FlatNetwork& flat, const rsn::Network& net);

  std::string dir_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace rrsn::serve
