// tamp/reclaim/epoch.hpp
//
// Epoch-based reclamation (EBR) — the second standard GC substitute, used
// where traversals touch many nodes and per-node hazard publication would
// dominate (skiplists, split-ordered hash tables).
//
// The classic three-epoch scheme, which perfbook (ch. 9) treats as a
// grace-period mechanism: a thread *announces* the global period (the
// epoch) it has observed when it pins on entry to an operation, and goes
// idle (gates nothing) when it unpins on exit.  The period advances only
// once every announced thread has caught up with it, and a node retired
// at period t is freed once the period has advanced two past t, because
// any thread that could have seen the node was announced at t or earlier
// and has since gone idle or announced again.  EpochDomain below is the
// engine; EpochGuard is the pin.
//
//  * announce() publishes the observed period with asym::publish.  A
//    collect's membarrier (asym_fence.hpp) makes every announcement
//    visible (the fallback publishes with a seq_cst store), and the
//    collect advances the period by CAS (one winner) if none lags;
//  * retirement is thread-local into three period-tagged buckets.  Once
//    the period has moved two past a bucket's tag, its nodes move to the
//    thread's ready list, and each retire() frees at most kFreeBatch;
//  * a thread attempts a grace period once per kCollectThreshold
//    retires.  If the period advanced since its last attempt, that
//    advance serves the batch (perfbook's batched, shared grace periods)
//    and the thread skips the barrier;
//  * a thread's record is a cell of the domain's per-thread store
//    (core/per_thread.hpp): collectors walk the cells, and pending()
//    sums them, without a lock;
//  * a thread's exit hook (core/thread_registry.hpp) frees its aged
//    nodes, orphans its young buckets for later collects to adopt and
//    leaves its record idle.  The id's next owner continues the record's
//    batch count, so an id's successive owners collect as one thread.
//
// The lock-free walk misses no thread it must honour.  A thread raises
// the registry's mark and stores its cell pointer (seq_cst) before it
// first announces, and each announcement loads the period (seq_cst)
// after them.  A collector loads the period, runs its barrier, then
// loads the mark and the cells (all seq_cst).  If it misses the thread's
// mark or cell, the thread stored it after the barrier's IPI on its CPU
// (asymmetric protocol) or after the collector's loads in the total
// order of seq_cst operations (fallback).  Either way the thread's next
// period load reads the collector's period or a later one: it lags
// nothing the collector decides.
//
// Unless a thread stays announced behind the period, pending() stays
// under 4 × kCollectThreshold × M (M the registry's mark) however many
// threads come and go: each id attempts a grace period per batch, and
// of any M consecutive attempts one runs the barrier and adopts orphans.
//
// Trade-off vs hazard pointers, measured by `bench_reclaim`: EBR reads
// are nearly free (one pin store per *operation*, not per node), but a
// single stalled reader blocks reclamation globally; HP bounds garbage
// per thread but publishes per pointer.  With the asymmetric-fence
// protocol (tamp/reclaim/asym_fence.hpp) both pay only a release store
// plus compiler barrier on the read side — the collector's membarrier
// carries the store-load ordering — and retirement is thread-local.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tamp/core/cacheline.hpp"
#include "tamp/core/per_thread.hpp"
#include "tamp/reclaim/asym_fence.hpp"
#include "tamp/reclaim/retired_node.hpp"

namespace tamp {

class EpochDomain {
  public:
    /// Per-thread retirements between grace-period attempts.  On a 4-vCPU
    /// KVM host (Xeon, 2.0 GHz), one membarrier costs its caller ≈4.6 µs
    /// with two busy siblings and each sibling ≈1.8 µs of interrupt time
    /// (bench_reclaim's BM_HeavyBarrier), so with 3 threads retiring a
    /// barrier costs the process ≈8.2 µs.  At 64 retires per batch that
    /// is ≈130 ns per retire, a tenth of a KV delete; at 1024 it is
    /// ≈8 ns, under 1%, before sharing divides it further.  A larger
    /// batch buys little more and keeps three buckets of it per thread
    /// unfreed.
    static constexpr std::size_t kCollectThreshold = 1024;
    /// Most aged nodes one retire() frees, so a bucket that ages at once
    /// is freed across kCollectThreshold / kFreeBatch calls.  The nodes
    /// are cold by then: at 128 per call the bursts pushed the KV churn
    /// workload's delete p999 above what the 64-retire collects cost, at
    /// 32 they stayed under it (EXPERIMENTS.md A5).
    static constexpr std::size_t kFreeBatch = 32;
    /// `announced` of a thread that gates no grace period.  The largest
    /// value, so an idle record never reads as lagging.
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

    /// A batch of nodes all retired while the period had one value.
    struct Bucket {
        std::uint64_t period = 0;
        std::vector<reclaim_detail::RetiredNode> nodes;
    };

    /// Per-thread record.  `announced` is read by every collector and
    /// `pending` is summed by pending(); everything else is owner-only.
    struct alignas(kCacheLineSize) Record {
        std::atomic<std::uint64_t> announced{kIdle};
        std::uint32_t nesting = 0;  // pin depth
        Bucket buckets[3];
        std::vector<reclaim_detail::RetiredNode> ready;  // grace period over
        std::size_t since_collect = 0;
        std::uint64_t collected_at = 0;  // period at the last attempt
        alignas(kCacheLineSize) std::atomic<std::size_t> pending{0};
    };

    /// A domain of its own; global() is the one every adapter uses.
    EpochDomain();
    /// Frees the records.  No thread may use the domain any more (threads
    /// that did may live on); drain() it first, or what is pending leaks.
    ~EpochDomain();
    EpochDomain(const EpochDomain&) = delete;  // hooked by address
    EpochDomain& operator=(const EpochDomain&) = delete;

    /// Inline, so a guard's pin costs a load of the pointer, not a call.
    static EpochDomain& global() {
        // Leaked, as HazardDomain: detached threads may retire (or
        // announce) during static destruction.
        static auto* d = new EpochDomain();
        return *d;
    }

    /// The calling thread's record.  An id's new owner starts idle and
    /// holds no references.
    Record& record() { return records_.local(); }

    /// Publish the current period as the calling thread's announcement
    /// (a pin).  The announcement must be globally visible before the
    /// thread reads any shared pointer, or a collector could advance past
    /// it while it holds an old-period reference.  asym::publish provides
    /// that ordering: the collector's membarrier under the asymmetric
    /// protocol, a seq_cst store in the fallback.
    void announce() { announce(record()); }

    /// announce() through the caller's record (`rec` is record()).  The
    /// period load is seq_cst for the lock-free walk (above).
    void announce(Record& rec) {
        asym::publish(rec.announced, period_.load(std::memory_order_seq_cst));
    }

    /// Stop gating grace periods (an unpin).  The caller holds no
    /// references until its next announce().
    void idle() { idle(record()); }

    /// idle() through the caller's record (`rec` is record()).
    static void idle(Record& rec) {
        rec.announced.store(kIdle, std::memory_order_release);
    }

    /// Hand `p` to the domain; freed two period advances later, by a
    /// later retire() (at most kFreeBatch per call), collect() or drain()
    /// of this thread, or at its exit.
    void retire(void* p, void (*deleter)(void*));

    /// Try to advance the period (membarrier, straggler check, CAS) and
    /// free everything of this thread's that has aged out, plus old
    /// enough orphans.
    void collect();

    /// Free everything freeable, for tests and phase boundaries in
    /// benchmarks.  Converges once no other thread is pinned.
    void drain();

    /// Nodes retired and not yet freed (tests and benches).
    std::size_t pending() const;

    std::uint64_t current() const {
        return period_.load(std::memory_order_acquire);
    }

  private:
    /// The exit hook (see the header).
    static void on_exit(void* self, std::size_t tid);

    /// The barrier half of collect(): membarrier, straggler check, CAS,
    /// then adopt old enough orphans into the caller's ready list.
    /// Returns the period after the attempt.
    std::uint64_t advance(Record& rec);

    // Loaded by every announce() and retire(): alone on its line.
    alignas(kCacheLineSize) std::atomic<std::uint64_t> period_{0};
    alignas(kCacheLineSize) per_thread<Record> records_;
    // Buckets of exited threads, adopted by later collects.  orphaned_
    // counts their nodes for pending() and the lock-free common collect.
    std::mutex mu_;
    std::vector<Bucket> orphans_;
    alignas(kCacheLineSize) std::atomic<std::size_t> orphaned_{0};
};

/// RAII pin.  Operations on EBR-managed structures run inside one:
///
///     EpochGuard g;                 // pins
///     ... traverse freely ...
///                                   // ~EpochGuard unpins
///
/// Guards nest (a per-thread counter); only the outermost pins/unpins,
/// through the record the guard looked up once.
class EpochGuard {
  public:
    EpochGuard() : rec_(&EpochDomain::global().record()) {
        if (rec_->nesting++ == 0) EpochDomain::global().announce(*rec_);
    }
    ~EpochGuard() {
        if (--rec_->nesting == 0) EpochDomain::idle(*rec_);
    }
    EpochGuard(const EpochGuard&) = delete;
    EpochGuard& operator=(const EpochGuard&) = delete;

  private:
    EpochDomain::Record* rec_;
};

}  // namespace tamp
