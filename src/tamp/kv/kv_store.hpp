// tamp/kv/kv_store.hpp
//
// KvStore — the serving layer of the KV service: N independent
// SplitOrderedMap shards behind a power-of-two router, per the
// partition-first doctrine (shard so most traffic never meets a rival,
// then make the per-shard structure lock-free so the traffic that does
// meet one doesn't serialize).
//
// Routing.  Shards are picked from the TOP hash bits
// ((h >> 48) & mask) and multi_update stripes from the middle
// ((h >> 24) & mask), while SplitOrderedMap buckets come from the LOW
// bits (h & (buckets - 1)).  Using disjoint bit ranges keeps the three
// layers uncorrelated — low-bit shard routing would map each shard's keys
// onto a fraction of its own buckets and waste the table.
//
// multi_update.  Cross-key atomicity rides on striped BackoffLocks:
// the update set's stripes are sorted and deduplicated, locked in
// ascending order (total order => no deadlock), the puts applied, and
// the locks released.  Atomicity is relative to other multi_update
// callers — plain put/get/del bypass the stripes by design (the
// single-key ops stay lock-free); readers that need cross-key
// consistency use scan's snapshot instead.  Lock-wait time lands in the
// tamp.kv.mu_wait_ns histogram, which is how a p999 sample in
// BENCH_kv.json gets attributed to stripe contention.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "tamp/core/cacheline.hpp"
#include "tamp/kv/split_ordered_map.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/spin/backoff_lock.hpp"

namespace tamp::kv {

// Construction-time value type, copied into the store — never shared
// mutably across threads (hence the plain-shared-member allows).
struct Config {
    // rounded up to a power of two  // tamp-lint: allow(plain-shared-member)
    std::size_t shards = 8;
    // multi_update locks (pow two)  // tamp-lint: allow(plain-shared-member)
    std::size_t stripes = 64;
    // per-shard starting table size // tamp-lint: allow(plain-shared-member)
    std::size_t initial_buckets = 16;
    // per-shard resize threshold    // tamp-lint: allow(plain-shared-member)
    std::size_t max_load = 4;
};

template <std::totally_ordered K, typename V,
          typename KeyOf = DefaultKeyOf<K>,
          reclaim::domain Domain = reclaim::ebr>
class KvStore {
  public:
    using map_type = SplitOrderedMap<K, V, KeyOf, Domain>;
    using key_type = K;
    using mapped_type = V;

    explicit KvStore(const Config& cfg = {})
        : shard_mask_(round_pow2(cfg.shards) - 1),
          stripe_mask_(round_pow2(cfg.stripes) - 1),
          stripes_(stripe_mask_ + 1) {
        shards_.reserve(shard_mask_ + 1);
        for (std::size_t i = 0; i <= shard_mask_; ++i) {
            shards_.push_back(std::make_unique<Padded<map_type>>(
                cfg.initial_buckets, cfg.max_load));
        }
    }

    KvStore(const KvStore&) = delete;
    KvStore& operator=(const KvStore&) = delete;

    std::optional<V> get(const K& k) {
        obs::scoped_timer<obs::ev::kv_op_ns, 4> lat;
        obs::counter<obs::ev::kv_gets>::inc();
        return shard_for(k).get(k);
    }

    /// Insert-or-update; true when k was newly inserted.
    bool put(const K& k, const V& v) {
        obs::scoped_timer<obs::ev::kv_op_ns, 4> lat;
        obs::counter<obs::ev::kv_puts>::inc();
        const bool inserted = shard_for(k).put(k, v);
        if (inserted) obs::counter<obs::ev::kv_inserts>::inc();
        return inserted;
    }

    bool del(const K& k) {
        obs::scoped_timer<obs::ev::kv_op_ns, 4> lat;
        obs::counter<obs::ev::kv_dels>::inc();
        return shard_for(k).del(k);
    }

    /// Atomic snapshot of up to `limit` pairs (0 = unlimited) from the
    /// shard owning `k` — the YCSB scan op.  The limit is pushed into
    /// the map's gated collect, so a short scan costs O(limit), not
    /// O(shard).
    std::size_t scan(const K& k, std::size_t limit,
                     std::vector<std::pair<K, V>>& out) {
        obs::scoped_timer<obs::ev::kv_op_ns, 4> lat;
        obs::counter<obs::ev::kv_scans>::inc();
        return shard_for(k).scan(out, limit);
    }

    /// Whole-store dump: per-shard snapshots concatenated.  Each shard's
    /// slice is atomic; the cut between shards is not.
    std::size_t snapshot(std::vector<std::pair<K, V>>& out) {
        const std::size_t base = out.size();
        for (auto& s : shards_) s->value.scan(out);
        return out.size() - base;
    }

    /// Apply every (key, value) put as one atomic step relative to
    /// other multi_update callers.  Stripes are locked in sorted order.
    void multi_update(const std::vector<std::pair<K, V>>& kvs) {
        obs::scoped_timer<obs::ev::kv_op_ns, 4> lat;
        obs::counter<obs::ev::kv_multi_updates>::inc();
        // Collect the stripe set (sorted + deduped => total lock order).
        std::vector<std::size_t> stripes;
        stripes.reserve(kvs.size());
        for (const auto& [k, v] : kvs) {
            stripes.push_back(stripe_of(KeyOf{}(k)));
        }
        std::sort(stripes.begin(), stripes.end());
        stripes.erase(std::unique(stripes.begin(), stripes.end()),
                      stripes.end());
        const std::uint64_t t0 = obs::tick();
        for (std::size_t s : stripes) stripes_[s].value.lock();
        obs::record_since<obs::ev::kv_mu_wait_ns>(t0);
        for (const auto& [k, v] : kvs) {
            if (shard_for(k).put(k, v)) {
                obs::counter<obs::ev::kv_inserts>::inc();
            }
        }
        for (auto it = stripes.rbegin(); it != stripes.rend(); ++it) {
            stripes_[*it].value.unlock();
        }
    }

    std::size_t size() const {
        std::size_t n = 0;
        for (const auto& s : shards_) n += s->value.size();
        return n;
    }
    std::size_t shards() const { return shards_.size(); }
    std::size_t stripes() const { return stripes_.size(); }

    /// The shard index `k` routes to (exposed for the routing test).
    std::size_t shard_index(const K& k) const {
        return shard_of(KeyOf{}(k));
    }
    map_type& shard(std::size_t i) { return shards_[i]->value; }

  private:
    static std::size_t round_pow2(std::size_t n) {
        std::size_t p = 1;
        while (p < n) p *= 2;
        return p;
    }
    // Top bits route shards, middle bits route stripes, low bits route
    // the per-shard buckets (see header comment).  The mask keeps the
    // shift safe for any shard count including 1.
    std::size_t shard_of(std::uint64_t h) const {
        return (h >> 48) & shard_mask_;
    }
    std::size_t stripe_of(std::uint64_t h) const {
        return (h >> 24) & stripe_mask_;
    }
    map_type& shard_for(const K& k) {
        return shards_[shard_of(KeyOf{}(k))]->value;
    }

    const std::size_t shard_mask_;
    const std::size_t stripe_mask_;
    std::vector<std::unique_ptr<Padded<map_type>>> shards_;
    std::vector<Padded<BackoffLock>> stripes_;
};

}  // namespace tamp::kv
