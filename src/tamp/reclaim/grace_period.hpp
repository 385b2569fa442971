// tamp/reclaim/grace_period.hpp
//
// The grace-period engine behind epoch-based reclamation (epoch.hpp) and
// quiescent-state-based reclamation (qsbr.hpp).  perfbook treats the two
// as one mechanism with two ways of detecting quiescent states, and so
// does this file: a thread *announces* the global period it has
// observed, the period advances only once every announced thread has
// caught up with it, and a node retired at period t is freed once the
// period has advanced two past t.  The schemes differ only in when a
// thread announces:
//
//  * EBR: a thread is idle (it gates nothing) until an EpochGuard
//    announces on entry to an operation, and goes idle again on exit —
//    one announcement per operation;
//  * QSBR: a thread registers online and stays announced between
//    quiescent points; QsbrReadGuard re-announces every 64th operation
//    boundary, and parked threads go idle() explicitly.
//
// Everything else is shared:
//
//  * announce() publishes the observed period with a release store +
//    compiler barrier; collect()'s membarrier (asym_fence.hpp) makes all
//    such publications visible before it judges stragglers.  Where
//    membarrier is unavailable announce() falls back to a seq_cst store;
//  * collect() advances the period by CAS (one winner) when no announced
//    thread lags;
//  * retirement is thread-local into three period-tagged buckets — no
//    lock, no shared cacheline on the retire path.  Once the period has
//    moved two past a bucket's tag, its nodes move to the thread's ready
//    list, and each retire() frees at most kFreeBatch of them;
//  * a thread attempts a grace period once per kCollectThreshold
//    retires.  If the period has advanced since its last attempt,
//    another thread's advance serves the batch (perfbook's batched,
//    shared grace periods): the thread ages its buckets against it and
//    skips the barrier and the lock.  Only a thread that saw no advance
//    runs the membarrier, the straggler check and the CAS;
//  * exiting threads free their aged nodes, unregister, and orphan the
//    rest for later collects to adopt.
//
// The template is explicitly instantiated for the two policies in
// grace_period.cpp (EpochDomain and QsbrDomain are the aliases).  A
// policy carries only what differs between the schemes:
//
//   kName               "ebr" / "qsbr", for reclaim::domain::name()
//   kRegistersOnline    a new thread starts announced (QSBR) or idle
//                       (EBR); also whether drain() announces for the
//                       caller and reclaim::*::quiescent() reports
//   kTracesAdvance      emit the epoch_advance trace event
//   retired, freed, collects, shared, advances, collect_ns
//                       the scheme's obs tags
//   announces           obs tag counted per announce(), or void

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <vector>

#include "tamp/core/cacheline.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/reclaim/asym_fence.hpp"
#include "tamp/reclaim/retired_node.hpp"

namespace tamp {

template <typename Policy>
class GracePeriodDomain {
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
    /// Construction registers the record (announced at the current
    /// period or idle, per the policy); destruction frees the aged nodes,
    /// unregisters the record and orphans the buckets still young.
    struct alignas(kCacheLineSize) Record {
        std::atomic<std::uint64_t> announced;
        std::uint32_t nesting = 0;  // read-section depth
        std::uint32_t exits = 0;    // outermost exits since an announce
        Bucket buckets[3];
        std::vector<reclaim_detail::RetiredNode> ready;  // grace period over
        std::size_t since_collect = 0;
        std::uint64_t collected_at = 0;  // period at the last attempt
        alignas(kCacheLineSize) std::atomic<std::size_t> pending{0};

        Record();
        ~Record();
        Record(const Record&) = delete;
        Record& operator=(const Record&) = delete;
    };

    /// Inline, so a guard's pin costs a load of the pointer, not a call.
    static GracePeriodDomain& global() {
        // Leaked, as HazardDomain: detached threads may retire (or
        // announce) during static destruction.
        static auto* d = new GracePeriodDomain();
        return *d;
    }

    static Record& record() {
        thread_local Record rec;
        return rec;
    }

    /// Publish the current period as the calling thread's announcement
    /// (EBR's pin, QSBR's quiescent point).  For EBR the announcement
    /// must be globally visible before the thread reads any shared
    /// pointer, or a collector could advance past it while it holds an
    /// old-period reference; for QSBR, before the thread's *next* read
    /// section, or a collector could credit a quiescence its in-flight
    /// references postdate.  asym::publish provides that ordering: the
    /// collector's membarrier under the asymmetric protocol, a seq_cst
    /// store in the fallback.
    void announce() { announce(record()); }

    /// announce() through the caller's record (`rec` is record()).
    void announce(Record& rec) {
        asym::publish(rec.announced, period_.load(std::memory_order_acquire));
        if constexpr (!std::is_void_v<typename Policy::announces>) {
            obs::counter<typename Policy::announces>::inc();
        }
    }

    /// Stop gating grace periods (EBR unpin, QSBR offline).  The caller
    /// holds no references until its next announce().
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
    /// benchmarks.  Converges once no other thread holds the period back
    /// (EBR: none pinned; QSBR: every other thread idle, exited or
    /// announcing).  Under QSBR the caller announces between attempts,
    /// so it must hold no references.
    void drain();

    /// Nodes retired and not yet freed (tests and benches).
    std::size_t pending() const;

    std::uint64_t current() const {
        return period_.load(std::memory_order_acquire);
    }

  private:
    GracePeriodDomain();

    /// The barrier half of collect(): membarrier, straggler check, CAS,
    /// then adopt old enough orphans into the caller's ready list.
    /// Returns the period after the attempt.
    std::uint64_t advance(Record& rec);

    // Loaded by every announce() and retire(): alone on its line.
    alignas(kCacheLineSize) std::atomic<std::uint64_t> period_{0};

    // Live records (collectors walk them for stragglers; pending() sums
    // them) and buckets orphaned by exited threads, adopted by later
    // collects.  has_orphans_ keeps the common collect off the lock.
    // Registration, pending() and every barrier collect write mu_, so it
    // starts a line of its own.
    alignas(kCacheLineSize) mutable std::mutex mu_;
    std::vector<Record*> records_;
    std::vector<Bucket> orphans_;
    alignas(kCacheLineSize) std::atomic<bool> has_orphans_{false};
};

}  // namespace tamp
