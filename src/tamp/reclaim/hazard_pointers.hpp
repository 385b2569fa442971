// tamp/reclaim/hazard_pointers.hpp
//
// Hazard pointers (Michael, 2004) — the standard safe-memory-reclamation
// substrate for the book's lock-free structures.
//
// The book's Java code frees nothing: unlinked nodes are collected by the
// JVM once no thread can reach them, and §9.8 / §10.6 explicitly lean on
// this ("a node is never recycled while some thread holds a reference").
// Hazard pointers recreate exactly that guarantee in C++: before using a
// shared pointer a thread *publishes* it in a hazard slot; a thread that
// unlinks a node `retire`s it, and retired nodes are only freed once no
// published slot names them.
//
// Design:
//  * one global domain; slots are indexed by tamp::thread_id(), a few per
//    thread (traversals need pred+curr+succ at most);
//  * every thread carries a HpThreadRecord (thread_local) caching its
//    slot-block base, its claimed-slot bitmask, and its retire list, so
//    slot claim/release and retire are inline O(1) with no shared-
//    cacheline traffic — the only cross-thread stores on the fast path
//    are the hazard publications themselves;
//  * the publication store is release + a compiler barrier; the scan
//    issues one process-wide membarrier before reading slots (the
//    asymmetric protocol of tamp/reclaim/asym_fence.hpp).  Where that is
//    unavailable the publication falls back to the classic seq_cst store;
//  * retirement is thread-local and O(1); when the local list reaches the
//    scan threshold — kScanThreshold, scaled up with the live-thread
//    count so the amortized bound R ≥ 2·H of Michael's paper holds — the
//    thread scans all published slots (one sorted snapshot, binary search
//    per retiree) and frees the unprotected ones;
//  * exiting threads hand their un-freed retirees to a global orphan list
//    that later scans adopt.
//
// The domain is process-lifetime (intentionally leaked — detached threads
// may retire after static destruction begins).  Memory overhead is bounded
// by  scan-threshold × live-threads  unreclaimed nodes.

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <vector>

#include "tamp/check/tsan_annotate.hpp"
#include "tamp/core/cacheline.hpp"
#include "tamp/core/thread_registry.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/asym_fence.hpp"
#include "tamp/reclaim/retired_node.hpp"

namespace tamp {

namespace reclaim_detail {

/// Per-thread hazard record: the inline fast-path state.  All non-atomic
/// fields are owner-only; `pending_approx` is owner-written (own line,
/// relaxed) and read by HazardDomain::pending().  Construction registers
/// the record with the domain (and binds the thread's slot block);
/// destruction orphans any un-freed retirees.
struct alignas(kCacheLineSize) HpThreadRecord {
    std::atomic<const void*>* slots = nullptr;  // this thread's slot block
    unsigned claimed = 0;                       // bitmask of live slots
    std::size_t scan_threshold;                 // adapted at each scan
    std::vector<RetiredNode> retired;
    std::atomic<std::size_t> pending_approx{0};

    HpThreadRecord();
    ~HpThreadRecord();
    HpThreadRecord(const HpThreadRecord&) = delete;
    HpThreadRecord& operator=(const HpThreadRecord&) = delete;
};

inline HpThreadRecord& hp_record() {
    thread_local HpThreadRecord rec;
    return rec;
}

[[noreturn]] void hp_slot_overflow();

}  // namespace reclaim_detail

class HazardDomain {
  public:
    /// Hazard slots each thread may hold simultaneously.
    static constexpr std::size_t kSlotsPerThread = 4;
    /// Floor on retirements between scans; the effective per-thread
    /// threshold grows to 2 × kSlotsPerThread × live-threads so scan cost
    /// stays amortized O(1) per retirement at any thread count.
    static constexpr std::size_t kScanThreshold = 64;

    /// The process-wide domain used by every tamp lock-free structure.
    static HazardDomain& global();

    /// Raw slot access: the k-th hazard slot of the calling thread.
    std::atomic<const void*>& slot(std::size_t k);

    /// Hand `p` to the domain; `deleter(p)` runs once no slot names it.
    /// Inline O(1): a push onto the calling thread's record.
    void retire(void* p, void (*deleter)(void*));

    /// Free every retired node not currently protected (called
    /// automatically when the local retire list reaches the threshold).
    void scan();

    /// Drain everything that can be drained — for tests and benchmarks
    /// that want deterministic footprints between phases.  Only safe when
    /// no concurrent operations are in flight.
    void drain();

    /// Statistics for tests: nodes currently awaiting reclamation.
    std::size_t pending() const;

    /// Implementation record; opaque outside the .cpp.
    struct Impl;

  private:
    friend struct reclaim_detail::HpThreadRecord;
    HazardDomain();
    Impl* impl_;
};

inline void HazardDomain::retire(void* p, void (*deleter)(void*)) {
    auto& rec = reclaim_detail::hp_record();
    // The retirer's accesses to *p happen-before the eventual free.  TSan
    // cannot derive this edge from the hazard-scan argument (it rides on
    // the publication/scan fence protocol, not on a release/acquire pair
    // on `p` itself), so state it explicitly.
    TAMP_TSAN_RELEASE(p);
    rec.retired.push_back(reclaim_detail::RetiredNode{p, deleter});
    rec.pending_approx.store(rec.retired.size(), std::memory_order_relaxed);
    obs::counter<obs::ev::hp_retired>::inc();
    obs::max_counter<obs::ev::hp_retire_list_hwm>::observe(
        rec.retired.size());
    if (rec.retired.size() >= rec.scan_threshold) scan();
}

/// RAII typed hazard slot.  Construction claims a free slot of the calling
/// thread; destruction clears and releases it.  Claim and release are a
/// bitmask update on the thread's own record — no function call, no shared
/// state.
///
///     HazardSlot<Node> hp;            // claim
///     Node* n = hp.protect(head);     // safe to dereference until...
///     hp.clear();                     // ...cleared, reassigned, or ~HazardSlot
template <typename T>
class HazardSlot {
  public:
    HazardSlot() : rec_(&reclaim_detail::hp_record()) {
        const unsigned free =
            ~rec_->claimed & ((1u << HazardDomain::kSlotsPerThread) - 1u);
        if (free == 0) reclaim_detail::hp_slot_overflow();
        bit_ = free & (0u - free);  // lowest free slot
        rec_->claimed |= bit_;
        cell_ = rec_->slots + std::countr_zero(bit_);
    }

    ~HazardSlot() {
        // Skip the release store when nothing was ever published — the
        // common case for guards created on failed-CAS retry paths.
        if (published_) cell_->store(nullptr, std::memory_order_release);
        rec_->claimed &= ~bit_;
    }

    HazardSlot(const HazardSlot&) = delete;
    HazardSlot& operator=(const HazardSlot&) = delete;

    /// The protect loop: publish the pointer, then re-read the source to
    /// make sure it was not retired in between.  On success the returned
    /// node cannot be freed while this slot holds it.  Templated on the
    /// atomic cell so both std::atomic<T*> and the tamp::atomic facade
    /// (under TAMP_SIM) are accepted.
    template <typename AtomicPtr>
    T* protect(const AtomicPtr& src) {
        T* p = src.load(std::memory_order_acquire);
        while (true) {
            publish(p);
            // seq_cst, not acquire: the fallback's Dekker argument needs
            // this re-read ordered after the seq_cst publication store.
            // Same instruction as acquire on x86/AArch64, so the
            // asymmetric fast path loses nothing.
            T* again = src.load(std::memory_order_seq_cst);
            if (again == p) {
                published_ = (p != nullptr);
                return p;
            }
            p = again;
        }
    }

    /// Publish a pointer the caller has already validated by other means
    /// (e.g. re-checking a marked link after publication).
    void set(T* p) {
        publish(p);
        published_ = (p != nullptr);
    }

    void clear() {
        if (published_) {
            cell_->store(nullptr, std::memory_order_release);
            published_ = false;
        }
    }

  private:
    void publish(T* p) {
        if (asym::enabled()) {
            // Fast path: the scan's membarrier makes this store visible
            // before the slots are read — no store-load barrier here.
            cell_->store(p, std::memory_order_release);
            asym::light_barrier();
        } else {
            // Fallback (non-Linux / TSan / TAMP_SIM / membarrier absent):
            // the publication must be visible to any scanner *before* we
            // re-validate — a release store could still be in flight when
            // a concurrent scan reads the slots.
            // tamp-lint: allow(seqcst-store-reclaim)
            cell_->store(p, std::memory_order_seq_cst);
        }
    }

    reclaim_detail::HpThreadRecord* rec_;
    std::atomic<const void*>* cell_;
    unsigned bit_;
    bool published_ = false;
};

/// Retire with the default deleter.
template <typename T>
void hazard_retire(T* p) {
    HazardDomain::global().retire(
        p, [](void* q) { delete static_cast<T*>(q); });
}

}  // namespace tamp
