#include "serve/cache.hpp"

#include <cstdio>
#include <filesystem>

namespace rrsn::serve {

std::shared_ptr<const void> ArtifactCache::get(std::uint64_t fingerprint,
                                               const std::string& kind,
                                               const Verifier& verify) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{fingerprint, kind};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  if (verify && !verify(it->second.value)) {
    ++collisions_;
    ++misses_;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lruIt);
    entries_.erase(it);
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lruIt);
  return it->second.value;
}

std::shared_ptr<const void> ArtifactCache::getOrCompute(
    std::uint64_t fingerprint, const std::string& kind,
    const Compute& compute, const Verifier& verify) {
  const Key key{fingerprint, kind};
  for (;;) {
    std::shared_future<std::shared_ptr<const void>> pending;
    std::promise<std::shared_ptr<const void>> promise;
    bool winner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (!verify || verify(it->second.value)) {
          ++hits_;
          lru_.splice(lru_.begin(), lru_, it->second.lruIt);
          return it->second.value;
        }
        // Counted as a collision only; the retry iteration below counts
        // the miss (or coalesces) exactly once.
        ++collisions_;
        bytes_ -= it->second.bytes;
        lru_.erase(it->second.lruIt);
        entries_.erase(it);
      } else if (auto inIt = inflight_.find(key); inIt != inflight_.end()) {
        ++coalesced_;
        pending = inIt->second;
      } else {
        ++misses_;
        inflight_.emplace(key, promise.get_future().share());
        winner = true;
      }
    }
    if (pending.valid()) {
      // Wait outside the lock; the winner's exception (if any)
      // propagates to every coalesced waiter here.
      std::shared_ptr<const void> value = pending.get();
      if (!verify || verify(value)) return value;
      continue;  // collision against the winner's content: recompute
    }
    if (!winner) continue;  // collision path: retry as a fresh miss

    try {
      std::pair<std::shared_ptr<const void>, std::size_t> r = compute();
      put(fingerprint, kind, r.first, r.second);
      {
        // Erase before resolving: a thread arriving in between sees the
        // interned entry (put happened first), never a dead future.
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
      }
      promise.set_value(r.first);
      return r.first;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
  }
}

void ArtifactCache::put(std::uint64_t fingerprint, const std::string& kind,
                        std::shared_ptr<const void> value, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{fingerprint, kind};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    it->second.value = std::move(value);
    it->second.bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
  } else {
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), bytes, lru_.begin()});
    bytes_ += bytes;
  }
  evictToBudgetLocked(key);
}

void ArtifactCache::evictToBudgetLocked(const Key& keep) {
  if (byteBudget_ == 0) return;
  while (bytes_ > byteBudget_ && !lru_.empty()) {
    const Key& victim = lru_.back();
    if (victim.fingerprint == keep.fingerprint && victim.kind == keep.kind) {
      break;  // the fresh entry alone exceeds the budget — keep it
    }
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.collisions = collisions_;
  s.coalesced = coalesced_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  s.byteBudget = byteBudget_;
  return s;
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

// ---------------------------------------------------------------- FlatStore

std::string FlatStore::arenaPath(std::uint64_t contentFingerprint) const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(contentFingerprint));
  return dir_ + "/" + hex + ".rrsnflat";
}

bool FlatStore::describes(const rsn::FlatNetwork& flat,
                          const rsn::Network& net) {
  return flat.segmentCount() == net.segments().size() &&
         flat.muxCount() == net.muxes().size() &&
         flat.instrumentCount() == net.instruments().size();
}

std::shared_ptr<const rsn::FlatNetwork> FlatStore::loadOrLower(
    std::uint64_t contentFingerprint, const rsn::Network& net) {
  if (dir_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lowers;
    return rsn::FlatNetwork::lower(net);
  }

  const std::string path = arenaPath(contentFingerprint);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::shared_ptr<const rsn::FlatNetwork> mapped;
    const bool fits =
        rsn::FlatNetwork::mapFile(path, mapped).ok() && describes(*mapped, net);
    std::lock_guard<std::mutex> lock(mu_);
    if (fits) {
      ++stats_.mapHits;
      return mapped;
    }
    // Corrupt bytes, another format version, or a stale arena from a
    // different design that hashed to the same name.
    ++stats_.rejected;
    std::filesystem::remove(path, ec);
  }

  std::shared_ptr<const rsn::FlatNetwork> lowered = rsn::FlatNetwork::lower(net);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lowers;
  }

  std::filesystem::create_directories(dir_, ec);
  if (!lowered->writeTo(path).ok()) return lowered;

  // Re-adopt through mmap so the published file is proven readable and
  // byte-identical (fingerprint equality) before anything relies on it.
  std::shared_ptr<const rsn::FlatNetwork> readback;
  if (rsn::FlatNetwork::mapFile(path, readback).ok() &&
      readback->fingerprint() == lowered->fingerprint() &&
      describes(*readback, net)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.published;
    return readback;
  }
  std::filesystem::remove(path, ec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
  }
  return lowered;
}

FlatStore::Stats FlatStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace rrsn::serve
