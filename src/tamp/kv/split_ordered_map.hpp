// tamp/kv/split_ordered_map.hpp
//
// SplitOrderedMap — the key→value face of the split-ordered table
// (tamp/hash/split_ordered.hpp; §13.3, Shalev & Shavit) for the KV
// service.  To the table the map adds only
//
//   * an in-place value — each node's slot is a `tamp::atomic<V>`, so a
//     put on an existing key is one store, not a remove+insert;
//   * linearizable scans — per-thread gate words (see below) turn the
//     classic non-atomic traversal into an atomic snapshot.
//
// Scan gate.  A thread that mutates the map owns a gate word in its cell
// of a per-thread store (core/per_thread.hpp) and is the word's only
// writer.  Every linearizing step of a mutation — the insert's link CAS,
// the remove's mark CAS, the update's in-place store — is bracketed by
// gate_enter(), which makes the word odd, and gate_exit(), which makes it
// even again, one higher: each word only grows.  A scan sums every cell's
// word (s1), collects, and sums again (s2); it keeps the collect iff no
// word was odd in the first sweep and s1 == s2.  Words only grow, so equal
// sums mean each word read the same even value v in both sweeps, and the
// collect shows each thread's attempts up to v and none after:
//
//   * the attempts that made v completed before the first sweep read it:
//     the exit store is release and the sweep acquires it, so their steps
//     happen-before the collect, which sees them;
//   * a later attempt enters before its step, and the step is a release
//     the collect's loads would acquire, so a collect that saw it would
//     make the second sweep read more than v.
//
// Each thread's attempts run one at a time, so that is a consistent cut:
// no mutation overlapped the collect.  An attempt that completed before
// the scan began is in it (exits and sweeps are seq_cst).  (A plain
// double-collect without the gate is *not* linearizable: an insert+remove
// pair landing in the already-traversed gap leaves both collects equal yet
// neither matches any single instant.)  Writers write only their own
// line; a scan reads every thread's.  Sentinel installs and marked-node
// snips are logical no-ops and skip the gate.  Scans are
// obstruction-free — they starve only while writers keep arriving, and
// each retry is counted in `tamp.kv.scan_retries` so a tail-latency sample
// can be attributed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
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

    /// A thread's gate word (see the header comment), on a line of its own.
    using Gate = Padded<tamp::atomic<std::uint64_t>>;

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
        Gate& gate = gates_.local();
        const auto [node, inserted] = table_.insert(guard, k, gated(gate), v);
        if (!inserted) {
            // In-place update: linearizes at the store (or, if a
            // concurrent remove marked the node first, just before that
            // mark — the stored value is then never observable, because
            // every reader re-checks the mark after loading).
            const std::uint64_t w = gate_enter(gate);
            node->slot.store(v, std::memory_order_release);
            gate_exit(gate, w);
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
        return table_.remove(guard, k, gated(gates_.local()));
    }

    /// Atomic snapshot (see the gate protocol above).  Appends up to
    /// `limit` (key, value) pairs in split order (0 = the whole map)
    /// and returns the count.  A truncated collect is still a snapshot:
    /// the gate sweeps bracket the traversal, so s1 == s2 with no writer
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
            bool writing = false;
            const std::uint64_t s1 = gate_sum(writing);
            if (writing) {
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
            if (gate_sum(writing) == s1) return out.size() - base;
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
    /// Make the caller's word odd; returns it, for gate_exit().  Relaxed:
    /// the step that follows is a release (an acq_rel CAS or a release
    /// store), and it carries the enter to any collect that sees the step.
    static std::uint64_t gate_enter(Gate& gate) {
        const std::uint64_t w = gate->load(std::memory_order_relaxed) + 1;
        gate->store(w, std::memory_order_relaxed);
        return w;
    }
    static void gate_exit(Gate& gate, std::uint64_t w) {
        gate->store(w + 1, std::memory_order_seq_cst);
    }

    /// The sum of every thread's gate word; `writing` is set when one of
    /// them is odd.
    std::uint64_t gate_sum(bool& writing) const {
        std::uint64_t sum = 0;
        gates_.for_each([&](std::size_t, const Gate& gate) {
            const std::uint64_t w = gate->load(std::memory_order_seq_cst);
            writing = writing || (w & 1u) != 0;
            sum += w;
        });
        return sum;
    }

    /// The step the table runs each linearizing CAS through (an
    /// insert's link, a remove's mark): bracketed by the caller's gate,
    /// and a lost CAS counts one `kv.cas_retries`.
    static auto gated(Gate& gate) {
        return [&gate](auto cas) {
            const std::uint64_t w = gate_enter(gate);
            const bool won = cas();
            gate_exit(gate, w);
            if (!won) obs::counter<obs::ev::kv_cas_retries>::inc();
            return won;
        };
    }

    Table table_;
    per_thread<Gate> gates_;
};

}  // namespace tamp::kv
