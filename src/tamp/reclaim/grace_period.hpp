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
//    lock, no shared cacheline on the retire path — flushed in batches
//    once the period has moved two past their tag;
//  * exiting threads unregister and orphan their buckets for later
//    collects to adopt.
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
//   retired, freed, collects, advances, collect_ns
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
    /// Per-thread retirements between advance/collect attempts.
    static constexpr std::size_t kCollectThreshold = 64;
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
    /// period or idle, per the policy); destruction unregisters it and
    /// orphans any un-freed buckets.
    struct alignas(kCacheLineSize) Record {
        std::atomic<std::uint64_t> announced;
        std::uint32_t nesting = 0;  // read-section depth
        std::uint32_t exits = 0;    // outermost exits since an announce
        Bucket buckets[3];
        std::size_t since_collect = 0;
        alignas(kCacheLineSize) std::atomic<std::size_t> pending{0};

        Record();
        ~Record();
        Record(const Record&) = delete;
        Record& operator=(const Record&) = delete;
    };

    static GracePeriodDomain& global();

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
    /// references postdate.  Under the asymmetric protocol the
    /// collector's membarrier provides that ordering and the store is a
    /// plain release; the fallback pays the classic seq_cst publication.
    void announce() {
        Record& rec = record();
        const std::uint64_t now = period_.load(std::memory_order_acquire);
        if (asym::enabled()) {
            rec.announced.store(now, std::memory_order_release);
            asym::light_barrier();
        } else {
            // tamp-lint: allow(seqcst-store-reclaim)
            rec.announced.store(now, std::memory_order_seq_cst);
        }
        if constexpr (!std::is_void_v<typename Policy::announces>) {
            obs::counter<typename Policy::announces>::inc();
        }
    }

    /// Stop gating grace periods (EBR unpin, QSBR offline).  The caller
    /// holds no references until its next announce().
    void idle() {
        record().announced.store(kIdle, std::memory_order_release);
    }

    /// Hand `p` to the domain; freed two period advances later.
    void retire(void* p, void (*deleter)(void*));

    /// Try to advance the period and free the buckets it has aged out.
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

    alignas(kCacheLineSize) std::atomic<std::uint64_t> period_{0};

    // Live records (collectors walk them for stragglers; pending() sums
    // them) and buckets orphaned by exited threads, adopted by later
    // collects.  has_orphans_ keeps the common collect off the lock.
    mutable std::mutex mu_;
    std::vector<Record*> records_;
    std::vector<Bucket> orphans_;
    alignas(kCacheLineSize) std::atomic<bool> has_orphans_{false};
};

}  // namespace tamp
