// tamp/kv/split_ordered_map.hpp
//
// SplitOrderedMap — the key→value face of the split-ordered table
// (tamp/hash/split_ordered.hpp; §13.3, Shalev & Shavit) for the KV
// service.  To the table the map adds only
//
//   * an in-place value — each node's slot is a `tamp::atomic<V>`, so a
//     put on an existing key is one store, not a remove+insert;
//   * linearizable scans — a packed writers/completed gate (see below)
//     turns the classic non-atomic traversal into an atomic snapshot.
//
// Scan gate.  `gate_` packs two fields into one word: the low
// kWriterBits count mutators currently between their decision to
// mutate and the completion of that attempt ("writers in flight"); the
// high bits count completed mutation attempts.  Every linearizing step
// of a mutation — the insert's link CAS, the remove's mark CAS, the
// update's in-place store — is bracketed by gate_enter()/gate_exit().
// A scan loads the gate (s1), re-loads it after one full collect (s2),
// and is atomic iff the writer field was zero at s1 and s1 == s2:
//
//   * a mutator in flight at s1 or s2 makes the writer field non-zero;
//   * a mutator that entered and exited between them bumps the
//     completed field — s1 != s2;
//
// so an s1 == s2 collect overlapped no mutation and is a snapshot at
// s1's position in the seq_cst order.  (A plain double-collect without
// the gate is *not* linearizable: an insert+remove pair landing in the
// already-traversed gap leaves both collects equal yet neither matches
// any single instant.)  Sentinel installs and marked-node snips are
// logical no-ops and skip the gate.  Scans are obstruction-free — they
// starve only while writers keep arriving, and each retry is counted in
// `tamp.kv.scan_retries` so a tail-latency sample can be attributed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/hash/split_ordered.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp::kv {

template <std::totally_ordered K, typename V,
          typename KeyOf = DefaultKeyOf<K>,
          reclaim::domain Domain = reclaim::ebr>
class SplitOrderedMap {
    static_assert(std::is_trivially_copyable_v<V>,
                  "values are updated in place through tamp::atomic<V>");
    using Table = detail::SplitOrderedTable<K, KeyOf, Domain, tamp::atomic<V>>;
    using Link = typename Table::Link;
    using Node = typename Table::Node;
    using Guard = typename Domain::guard;

    // Scan gate field layout (see header comment).
    static constexpr std::uint64_t kWriterBits = 20;
    static constexpr std::uint64_t kWriterMask =
        (std::uint64_t{1} << kWriterBits) - 1;
    static constexpr std::uint64_t kDoneInc = std::uint64_t{1}
                                              << kWriterBits;

  public:
    using key_type = K;
    using mapped_type = V;
    using reclaim_domain = Domain;

    explicit SplitOrderedMap(std::size_t initial_buckets = 16,
                             std::size_t max_load = 4)
        : table_(initial_buckets, max_load) {}

    /// Insert-or-update.  Returns true when k was inserted, false when
    /// an existing entry was updated in place.
    bool put(const K& k, const V& v) {
        Guard guard;
        sim::op_scope op("SplitOrderedMap::put");
        const auto [node, inserted] = table_.insert(guard, k, gated(), v);
        if (!inserted) {
            // In-place update: linearizes at the store (or, if a
            // concurrent remove marked the node first, just before that
            // mark — the stored value is then never observable, because
            // every reader re-checks the mark after loading).
            gate_enter();
            node->slot.store(v, std::memory_order_release);
            gate_exit();
        }
        return inserted;
    }

    /// Snapshot read; linearizes at the value load (validated by the
    /// mark re-check — marks are monotone) or, for a marked node, at
    /// the mark re-check itself.
    std::optional<V> get(const K& k) {
        Guard guard;
        sim::op_scope op("SplitOrderedMap::get");
        const Node* n = table_.lookup(guard, k);
        if (n == nullptr) return std::nullopt;
        const V v = n->slot.load(std::memory_order_acquire);
        if (Table::marked(n)) return std::nullopt;
        return v;
    }

    /// Remove.  Linearizes at the mark CAS.
    bool del(const K& k) {
        Guard guard;
        sim::op_scope op("SplitOrderedMap::del");
        return table_.remove(guard, k, gated());
    }

    /// Atomic snapshot (see the gate protocol above).  Appends up to
    /// `limit` (key, value) pairs in split order (0 = the whole map)
    /// and returns the count.  A truncated collect is still a snapshot:
    /// the gate pair brackets the traversal, so s1 == s2 with no writer
    /// in flight makes any *prefix* of the list a consistent cut — the
    /// collect stops early instead of gathering everything and
    /// discarding the rest.  Obstruction-free: retries while mutators
    /// are in flight.
    std::size_t scan(std::vector<std::pair<K, V>>& out,
                     std::size_t limit = 0) {
        [[maybe_unused]] Guard guard;
        sim::op_scope op("SplitOrderedMap::scan");
        Backoff backoff;
        const std::size_t base = out.size();
        for (;;) {
            const std::uint64_t s1 = gate_.load(std::memory_order_seq_cst);
            if ((s1 & kWriterMask) != 0) {
                obs::counter<obs::ev::kv_scan_retries>::inc();
                backoff.backoff();
                continue;
            }
            out.resize(base);
            for (Link* n = table_.head(); n != nullptr;) {
                if (limit != 0 && out.size() - base == limit) break;
                bool marked = false;
                Link* next = n->next.get(&marked);
                if (Table::is_data(n) && !marked) {
                    const auto* d = static_cast<const Node*>(n);
                    out.emplace_back(
                        d->key, d->slot.load(std::memory_order_acquire));
                }
                n = next;
            }
            const std::uint64_t s2 = gate_.load(std::memory_order_seq_cst);
            if (s1 == s2) return out.size() - base;
            obs::counter<obs::ev::kv_scan_retries>::inc();
            backoff.backoff();
        }
    }

    std::size_t size() const { return table_.size(); }
    std::size_t buckets() const { return table_.buckets(); }
    std::size_t segments_installed() const {
        return table_.segments_installed();
    }

  private:
    void gate_enter() {
        gate_.fetch_add(1, std::memory_order_seq_cst);
    }
    void gate_exit() {
        // -1 writer in flight, +1 completed attempt, in one RMW.
        gate_.fetch_add(kDoneInc - 1, std::memory_order_seq_cst);
    }

    /// The step the table runs each linearizing CAS through (an
    /// insert's link, a remove's mark): bracketed by the gate, and a
    /// lost CAS counts one `kv.cas_retries`.
    auto gated() {
        return [this](auto cas) {
            gate_enter();
            const bool won = cas();
            gate_exit();
            if (!won) obs::counter<obs::ev::kv_cas_retries>::inc();
            return won;
        };
    }

    Table table_;
    // The gate is the scan/mutator rendezvous: its own line.
    alignas(kCacheLineSize) tamp::atomic<std::uint64_t> gate_{0};
};

}  // namespace tamp::kv
