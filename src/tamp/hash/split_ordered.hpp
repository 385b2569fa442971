// tamp/hash/split_ordered.hpp
//
// The lock-free hash table with recursive split-ordering (§13.3,
// Figs. 13.13–13.18; Shalev & Shavit).  The key insight: instead of
// moving items between buckets when the table grows, keep *all* items in
// one lock-free list sorted by bit-reversed hash ("split order") and let
// buckets be lazily-installed sentinel nodes that point *into* the list.
// Doubling the table only adds new sentinels — "the list does not move,
// the buckets move onto the list."
//
//   ordinary key(h)  = reverse_bits(h) | 1      (odd — always after its
//                                                bucket's sentinel)
//   sentinel key(b)  = reverse_bits(b)          (even)
//
// When the table doubles from 2^k to 2^(k+1), bucket b's new sibling
// b + 2^k gets a sentinel whose split-order key falls exactly in the
// middle of b's chain — the recursion that gives the scheme its name.
//
// A sentinel is only its split-order key and link, a 16-byte SplitLink,
// and it lives in the bucket directory.  Bucket b's entry is 24 bytes: the
// pointer every operation starts from, then room for b's sentinel, so a
// lookup finds the sentinel beside the pointer it loads instead of one
// dependent miss later.  Installing b (Fig. 13.16) claims the room first:
// the installer CASes the entry's pointer from null to the tag kClaimed,
// builds the sentinel in the room, links it into the parent's chain and
// publishes it (CAS kClaimed -> sentinel).  An installer that finds the
// room claimed does not wait for its owner: it links a heap sentinel the
// same way, so installs stay lock-free.  The list keeps exactly one
// sentinel per bucket, the first linked, and every installer publishes
// that one; a heap loser is deleted, a room's stays where it was built.
// Bucket 0's sentinel, the head of the list, is built in entry 0's room by
// the constructor.  Directory segments are mmap'd: a zero page reads as
// null entries and is resident only once touched.  The destructor deletes
// the data nodes and the heap sentinels but skips a sentinel that sits in
// its own bucket's room: that memory was never the heap's, and it goes
// with the segment's munmap.
//
// A data node extends the link with the key and the face's slot, from the
// NodePool class its size rounds to (32 bytes in the KV map).  An odd
// so_key marks a data node, so the table and its faces read `key` and
// `slot` only behind one; a remove marks only data nodes, and the
// Harris–Michael core retires as that type.
//
// Element count.  Each thread keeps the net of its inserts and removes in
// a cell of its own (core/per_thread.hpp, perfbook's per-thread counter),
// so no insert or remove writes a line other threads write.  size() sums
// the cells: exact at quiescence, and never below zero while a remove's
// count lands before the count of the insert it undid.  An insert checks
// the resize policy (the average chain exceeds max_load) from that sum on
// every 64th insert of its thread.
//
// SplitOrderedTable is tamp's one such table: the Harris–Michael list of
// tamp/lists/harris_michael.hpp, a doubling bucket directory, lazy
// sentinel install and the resize policy, all on tamp::atomic so tamp::sim
// explores it.  SplitOrderedHashSet (below) is its set face;
// tamp::kv::SplitOrderedMap adds an in-place value slot, a scan gate and
// atomic scans.  Each face passes a `step` that runs every linearizing
// CAS (an insert's link, a remove's mark): the map brackets it in its
// gate, the set runs it bare and never touches one.

#pragma once

#include <sys/mman.h>

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "tamp/core/bits.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/marked_ptr.hpp"
#include "tamp/core/node_pool.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/lists/harris_michael.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/config.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {
namespace detail {

/// The step of a face that brackets nothing: run the CAS.
inline constexpr auto kDirectStep = [](auto cas) { return cas(); };

/// A split-ordered list's link, and the whole of a bucket sentinel (even
/// so_key).  A table's data nodes extend it (SplitOrderedTable::Node).
struct SplitLink {
    const std::uint64_t so_key;  // split-order key; even = sentinel
    AtomicMarkedPtr<SplitLink> next;

    explicit SplitLink(std::uint64_t so) : so_key(so) {}
};

/// A bucket's directory entry: null, kClaimed or the bucket's sentinel,
/// and the room the first installer builds that sentinel in.
struct SplitEntry {
    tamp::atomic<SplitLink*> sentinel;
    alignas(SplitLink) std::byte room[sizeof(SplitLink)];
};

template <std::totally_ordered K, typename KeyOf, reclaim::domain Domain,
          typename Slot>
class SplitOrderedTable {
    static_assert(!Domain::kProtects,
                  "split-ordered traversals publish no per-pointer "
                  "protection; use a grace-period domain (ebr/qsbr)");

    static constexpr std::size_t kSegment0Bits = 4;
    static constexpr std::size_t kSegment0Size = std::size_t{1}
                                                 << kSegment0Bits;
    static constexpr std::size_t kMaxSegments = 28;
    static constexpr std::size_t kMaxBuckets = kSegment0Size
                                               << (kMaxSegments - 1);
    /// A claimed entry's pointer: its room is taken, no sentinel published.
    static constexpr std::uintptr_t kClaimed = 1;
    /// A thread checks the resize policy on every kResizeCheck-th insert.
    static constexpr std::uint32_t kResizeCheck = 64;

  public:
    using Link = SplitLink;
    using Entry = SplitEntry;
    /// A data node (odd so_key).  The deleters the domain runs and the
    /// destructor's deletes return it to its own NodePool class.
    struct Node : Link {
        const K key;                      // tie-break for same-hash keys
        [[no_unique_address]] Slot slot;  // the map's value; set: empty

        template <typename... A>
        Node(std::uint64_t so, const K& k, const A&... a)
            : Link(so), key(k), slot(a...) {}

        static void* operator new(std::size_t) {
            return NodePoolFor<Node>::allocate();
        }
        static void operator delete(void* p) {
            NodePoolFor<Node>::deallocate(p);
        }
    };
    using Guard = typename Domain::guard;

    SplitOrderedTable(std::size_t initial_buckets, std::size_t max_load)
        : max_load_(max_load) {
        std::size_t b = kSegment0Size;
        while (b < initial_buckets && b < kMaxBuckets) b *= 2;
        bucket_count_.store(b, std::memory_order_relaxed);
        // Bucket 0's sentinel is the recursion's base case — eager.
        Entry& e = entry(0);
        head_ = ::new (static_cast<void*>(e.room)) Link(0);
        e.sentinel.store(head_, std::memory_order_release);
    }

    ~SplitOrderedTable() {
        Link* n = head_;
        while (n != nullptr) {
            Link* next = n->next.load(std::memory_order_relaxed).ptr();
            if (is_data(n)) {
                delete static_cast<Node*>(n);
            } else if (!in_room(n)) {
                delete n;  // a room's sentinel goes with its segment
            }
            n = next;
        }
        for (std::size_t s = 0; s < kMaxSegments; ++s) {
            Entry* segment = segments_[s].load(std::memory_order_relaxed);
            if (segment != nullptr) unmap(segment, segment_size(s));
        }
    }

    /// Insert-or-find k: the resident node and whether this call linked
    /// it, with a slot built from `slot_init`.  A present key is returned
    /// untouched.  A new key may double the table (the resize policy:
    /// the average chain exceeds max_load), checked on every
    /// kResizeCheck-th insert of the calling thread.
    template <typename Step, typename... A>
    std::pair<Node*, bool> insert(Guard& g, const K& k, Step step,
                                  const A&... slot_init) {
        const std::uint64_t h = KeyOf{}(k);
        std::size_t n = bucket_count_.load(std::memory_order_acquire);
        const Target t{split_ordinary_key(h), k};
        const auto make = [&] { return new Node(t.so, k, slot_init...); };
        const auto res = HM::insert(g, bucket(g, h & (n - 1)), t, make, step);
        if (!res.second) return res;
        Count& c = count(+1);
        if (++c.inserts % kResizeCheck == 0 && size() / n > max_load_ &&
            n * 2 <= kMaxBuckets &&
            bucket_count_.compare_exchange_strong(
                n, n * 2, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
            obs::counter<obs::ev::kv_resizes>::inc();
        }
        return res;
    }

    /// Remove k.  Linearizes at the mark CAS, which `step` runs.
    template <typename Step>
    bool remove(Guard& g, const K& k, Step step) {
        const std::uint64_t h = KeyOf{}(k);
        Link* start = bucket(g, bucket_of(h));
        const bool removed =
            HM::remove(g, start, Target{split_ordinary_key(h), k}, step);
        if (removed) count(-1);
        return removed;
    }

    /// Wait-free lookup: the node holding k, or null.  Marked nodes are
    /// skipped logically but never snipped here; the caller re-checks
    /// marked() after reading what it needs (marks are monotone).
    Node* lookup(Guard& g, const K& k) {
        const std::uint64_t h = KeyOf{}(k);
        const Target t{split_ordinary_key(h), k};
        Link* curr = bucket(g, bucket_of(h));
        while (curr != nullptr && t.before(curr)) {
            curr = curr->next.load().ptr();
        }
        return curr != nullptr && t.matches(curr) ? static_cast<Node*>(curr)
                                                  : nullptr;
    }

    static bool marked(const Link* n) { return n->next.load().marked(); }

    /// Whether n is a data node (odd so_key), and so a Node.
    static bool is_data(const Link* n) { return (n->so_key & 1u) != 0; }

    /// Bucket 0's sentinel: the whole list, in split order.
    Link* head() const { return head_; }

    /// The sum of the threads' counts: exact at quiescence.
    std::size_t size() const {
        std::int64_t sum = 0;
        counts_.for_each([&sum](std::size_t, const Count& c) {
            sum += c.net.load(std::memory_order_relaxed);
        });
        return sum > 0 ? static_cast<std::size_t>(sum) : 0;
    }
    std::size_t buckets() const {
        return bucket_count_.load(std::memory_order_acquire);
    }
    /// Directory slots installed so far (growth leaves nodes in place —
    /// the growth test pins this against buckets()).
    std::size_t segments_installed() const {
        std::size_t n = 0;
        for (const auto& s : segments_) {
            if (s.load(std::memory_order_acquire) != nullptr) ++n;
        }
        return n;
    }

  private:
    // Snips retire as Node: only data nodes are ever marked.
    using HM = HarrisMichael<Domain, Node>;

    /// A thread's share of the element count.  `net` is summed by size();
    /// `inserts` is its owner's alone.
    struct alignas(kCacheLineSize) Count {
        tamp::atomic<std::int64_t> net{0};
        std::uint32_t inserts = 0;
    };

    /// Add d to the calling thread's net count; its cell.
    Count& count(std::int64_t d) {
        Count& c = counts_.local();
        c.net.store(c.net.load(std::memory_order_relaxed) + d,
                    std::memory_order_relaxed);
        return c;
    }

    // The search target: split-order key, then the key as tie-break (a
    // sentinel's even split-order key is unique on its own; an odd one
    // equal to `so` is a data node's).
    struct Target {
        const std::uint64_t so;
        const K& k;
        bool before(const Link* n) const {
            if (n->so_key != so) return n->so_key < so;
            return (so & 1u) != 0 && static_cast<const Node*>(n)->key < k;
        }
        bool matches(const Link* n) const {
            return n->so_key == so &&
                   ((so & 1u) == 0 || static_cast<const Node*>(n)->key == k);
        }
    };

    /// The bucket of hash h: its low bits (every bucket count is a power
    /// of two).
    std::size_t bucket_of(std::uint64_t h) const {
        return h & (bucket_count_.load(std::memory_order_acquire) - 1);
    }

    /// Entries in segment s.
    static std::size_t segment_size(std::size_t s) {
        return s == 0 ? kSegment0Size : kSegment0Size << (s - 1);
    }

    /// Bucket b's entry.  Segment 0 holds buckets [0, 16); segment s >= 1
    /// holds [2^(s+3), 2^(s+4)), doubling the table.  (One bit_width
    /// serves both cases: b | 15 gives segment 0 the width 4.)
    Entry& entry(std::size_t b) {
        const auto width = static_cast<std::size_t>(
            std::bit_width(b | (kSegment0Size - 1)));
        const std::size_t seg = width - kSegment0Bits;
        const std::size_t base =
            (std::size_t{1} << (width - 1)) & ~(kSegment0Size - 1);
        assert(seg < kMaxSegments);
        Entry* segment = segments_[seg].load(std::memory_order_acquire);
        if (segment == nullptr) [[unlikely]] {
            segment = map_segment(seg);
        }
        return segment[b - base];
    }

    /// Map segment s, or adopt the one a racer installed first.
    [[gnu::noinline]] Entry* map_segment(std::size_t s) {
        const std::size_t n = segment_size(s);
        void* p = mmap(nullptr, n * sizeof(Entry), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) throw std::bad_alloc();
        auto* segment = static_cast<Entry*>(p);
        // Outside the sim a zero page is already a run of null entries
        // (tamp::atomic is std::atomic there); the sim's atomics must be
        // constructed.
        if constexpr (sim::kSimEnabled) {
            std::uninitialized_value_construct_n(segment, n);
        }
        Entry* expected = nullptr;
        if (!segments_[s].compare_exchange_strong(
                expected, segment, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            unmap(segment, n);  // a racer installed one first
            return expected;
        }
        return segment;
    }

    static void unmap(Entry* segment, std::size_t n) {
        if constexpr (sim::kSimEnabled) {
            // The sim tracks each atomic until its destructor runs.  Rooms
            // are never destroyed, and an execution the sim abandons may
            // leave one built and unlinked: a fresh Link destroyed in every
            // room ends whatever the room held before the pages go.
            for (std::size_t i = 0; i < n; ++i) {
                std::destroy_at(
                    ::new (static_cast<void*>(segment[i].room)) Link(0));
            }
            std::destroy_n(segment, n);
        }
        munmap(segment, n * sizeof(Entry));
    }

    static Link* claimed() { return reinterpret_cast<Link*>(kClaimed); }
    static bool published(const Link* s) {
        return reinterpret_cast<std::uintptr_t>(s) > kClaimed;
    }

    /// Whether sentinel s was built in its bucket's room.
    bool in_room(const Link* s) {
        return static_cast<const void*>(s) ==
               entry(reverse_bits64(s->so_key)).room;
    }

    /// Bucket b's sentinel, installed on first touch.
    Link* bucket(Guard& g, std::size_t b) {
        Link* sentinel = entry(b).sentinel.load(std::memory_order_acquire);
        return published(sentinel) ? sentinel : install(g, b);
    }

    /// initializeBucket of Fig. 13.16: link b's sentinel into its parent's
    /// chain (the parent is b with the top bit cleared, Fig. 13.17, and is
    /// installed first), then publish whichever sentinel is resident.  The
    /// installer that claims b's room builds the sentinel there; one that
    /// finds it claimed builds it on the heap instead of waiting.  Out of
    /// line so every operation's bucket() stays a load and a branch.
    [[gnu::noinline]] Link* install(Guard& g, std::size_t b) {
        Entry& e = entry(b);
        Link* seen = nullptr;
        const bool room = e.sentinel.compare_exchange_strong(
            seen, claimed(), std::memory_order_acq_rel,
            std::memory_order_acquire);
        if (!room && published(seen)) return seen;
        const K none{};
        const Target t{split_sentinel_key(b), none};
        const auto make = [&]() -> Link* {
            return room ? ::new (static_cast<void*>(e.room)) Link(t.so)
                        : new Link(t.so);
        };
        const auto dispose = [room](Link* n) {
            if (!room) delete n;  // a room's loser stays in the room
        };
        Link* node = HM::insert(g, bucket(g, b - std::bit_floor(b)), t, make,
                                kDirectStep, dispose)
                         .first;
        Link* expected = claimed();
        if (e.sentinel.compare_exchange_strong(expected, node,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
            obs::counter<obs::ev::kv_sentinel_installs>::inc();
        }
        return node;
    }

    const std::size_t max_load_;
    Link* head_;  // bucket 0's sentinel (so_key == 0), in entry 0's room
    // Read by every operation and written rarely.
    alignas(kCacheLineSize) tamp::atomic<std::size_t> bucket_count_;
    tamp::atomic<Entry*> segments_[kMaxSegments]{};
    per_thread<Count> counts_;
};

}  // namespace detail

template <std::totally_ordered T, typename KeyOf = DefaultKeyOf<T>,
          reclaim::domain Domain = reclaim::ebr>
class SplitOrderedHashSet {
    struct Empty {};
    using Table = detail::SplitOrderedTable<T, KeyOf, Domain, Empty>;
    using Guard = typename Domain::guard;

  public:
    using value_type = T;

    explicit SplitOrderedHashSet(std::size_t initial_buckets = 16,
                                 std::size_t max_load = 4)
        : table_(initial_buckets, max_load) {}

    bool add(const T& v) {
        Guard guard;
        sim::op_scope op("SplitOrderedHashSet::add");
        return table_.insert(guard, v, detail::kDirectStep).second;
    }

    bool remove(const T& v) {
        Guard guard;
        sim::op_scope op("SplitOrderedHashSet::remove");
        return table_.remove(guard, v, detail::kDirectStep);
    }

    /// Wait-free traversal from the bucket's sentinel.
    bool contains(const T& v) {
        Guard guard;
        sim::op_scope op("SplitOrderedHashSet::contains");
        const auto* n = table_.lookup(guard, v);
        return n != nullptr && !Table::marked(n);
    }

    std::size_t size() const { return table_.size(); }
    std::size_t buckets() const { return table_.buckets(); }

  private:
    Table table_;
};

}  // namespace tamp
