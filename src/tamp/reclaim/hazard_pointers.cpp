#include "tamp/reclaim/hazard_pointers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "tamp/obs/timer.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/asym_fence.hpp"

namespace tamp {

using reclaim_detail::HpThreadRecord;
using reclaim_detail::RetiredNode;

struct HazardDomain::Impl {
    struct alignas(kCacheLineSize) SlotBlock {
        std::atomic<const void*> slots[kSlotsPerThread];
    };

    SlotBlock blocks[kMaxThreads];
    // Highest thread id that has ever touched a slot: bounds scan cost.
    alignas(kCacheLineSize) std::atomic<std::size_t> max_tid{0};

    // Registry of live per-thread records (pending() sums them) and the
    // retirees orphaned by exited threads, adopted by later scans.
    std::mutex mu;
    std::vector<HpThreadRecord*> records;
    std::vector<RetiredNode> orphans;
    alignas(kCacheLineSize) std::atomic<bool> has_orphans{false};
    // Registered-record count, read by scans to adapt the threshold.
    alignas(kCacheLineSize) std::atomic<std::size_t> live_records{0};
};

namespace {

HazardDomain::Impl* g_impl = nullptr;

}  // namespace

HazardDomain::HazardDomain() : impl_(new Impl()) {
    for (auto& block : impl_->blocks) {
        for (auto& s : block.slots) {
            s.store(nullptr, std::memory_order_relaxed);
        }
    }
    asym::init();
}

HazardDomain& HazardDomain::global() {
    // Leaked: detached threads may retire during static destruction.
    static HazardDomain* d = [] {
        auto* dom = new HazardDomain();
        g_impl = dom->impl_;
        return dom;
    }();
    return *d;
}

void HazardDomain::scan() {
    obs::scoped_timer<obs::ev::hp_scan_ns> scan_latency;
    auto& rec = reclaim_detail::hp_record();
    // Adopt orphans so nodes retired by dead threads still get freed.
    // The flag keeps the common no-orphans scan lock-free.
    if (impl_->has_orphans.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> guard(impl_->mu);
        if (!impl_->orphans.empty()) {
            rec.retired.insert(rec.retired.end(), impl_->orphans.begin(),
                               impl_->orphans.end());
            impl_->orphans.clear();
        }
        impl_->has_orphans.store(false, std::memory_order_relaxed);
    }
    // Adapt the threshold to the live-thread count: scanning S slots is
    // only amortized O(1) per retirement if the batch R grows with S
    // (Michael's R ≥ H·(1+ε) rule, ε = 1 here).
    const std::size_t live = impl_->live_records.load(std::memory_order_relaxed);
    rec.scan_threshold =
        std::max(kScanThreshold, 2 * kSlotsPerThread * live);

    // Stage 1: make every reader's publication visible (membarrier under
    // the asymmetric protocol; under the fallback the seq_cst loads below
    // pair with the seq_cst publication stores), then snapshot all
    // published hazards into a sorted array — O(S log S) once, O(log S)
    // per retiree below, instead of a hash-set probe per retiree.
    asym::heavy_barrier();
    std::vector<const void*> protected_ptrs;
    protected_ptrs.reserve(2 * kSlotsPerThread);
    const std::size_t upper =
        std::min(impl_->max_tid.load(std::memory_order_acquire) + 1,
                 kMaxThreads);
    for (std::size_t t = 0; t < upper; ++t) {
        for (std::size_t k = 0; k < kSlotsPerThread; ++k) {
            const void* p =
                impl_->blocks[t].slots[k].load(std::memory_order_seq_cst);
            if (p != nullptr) protected_ptrs.push_back(p);
        }
    }
    std::sort(protected_ptrs.begin(), protected_ptrs.end(),
              std::less<const void*>());

    // Stage 2: free what nobody protects; keep the rest for next time.
    // Swap the list out first so a deleter that itself retires (node
    // chains) appends to a coherent list instead of the one we iterate.
    std::vector<RetiredNode> work;
    work.swap(rec.retired);
    std::uint64_t freed = 0;
    for (const RetiredNode& rn : work) {
        if (std::binary_search(protected_ptrs.begin(), protected_ptrs.end(),
                               static_cast<const void*>(rn.ptr),
                               std::less<const void*>())) {
            rec.retired.push_back(rn);
        } else {
            rn.free();
            ++freed;
        }
    }
    rec.pending_approx.store(rec.retired.size(), std::memory_order_relaxed);
    obs::counter<obs::ev::hp_scans>::inc();
    obs::counter<obs::ev::hp_freed>::inc(freed);
    obs::max_counter<obs::ev::hp_freed_per_scan_hwm>::observe(freed);
    obs::trace(obs::trace_ev::kHpScan, freed);
}

void HazardDomain::drain() {
    // Repeated scans converge once callers have cleared their slots.
    for (int i = 0; i < 3 && pending() > 0; ++i) scan();
}

std::size_t HazardDomain::pending() const {
    std::lock_guard<std::mutex> guard(impl_->mu);
    std::size_t n = impl_->orphans.size();
    for (const HpThreadRecord* r : impl_->records) {
        n += r->pending_approx.load(std::memory_order_relaxed);
    }
    return n;
}

namespace reclaim_detail {

HpThreadRecord::HpThreadRecord()
    : scan_threshold(HazardDomain::kScanThreshold) {
    HazardDomain& dom = HazardDomain::global();
    auto* impl = dom.impl_;
    const std::size_t tid = thread_id();
    // Keep the scan bound tight: remember the highest slot-block in use.
    // Monotonic-max bookkeeping only — the scan's acquire load pairs with
    // the slot stores, not with this.
    std::size_t seen = impl->max_tid.load(std::memory_order_relaxed);
    // tamp-lint: allow(cas-relaxed-success)
    while (tid > seen && !impl->max_tid.compare_exchange_weak(
                             seen, tid, std::memory_order_relaxed)) {
    }
    slots = impl->blocks[tid].slots;
    retired.reserve(HazardDomain::kScanThreshold);
    std::lock_guard<std::mutex> guard(impl->mu);
    impl->records.push_back(this);
    impl->live_records.store(impl->records.size(),
                             std::memory_order_relaxed);
}

HpThreadRecord::~HpThreadRecord() {
    auto* impl = g_impl;
    if (impl == nullptr) return;
    std::lock_guard<std::mutex> guard(impl->mu);
    auto it = std::find(impl->records.begin(), impl->records.end(), this);
    if (it != impl->records.end()) impl->records.erase(it);
    impl->live_records.store(impl->records.size(),
                             std::memory_order_relaxed);
    if (!retired.empty()) {
        impl->orphans.insert(impl->orphans.end(), retired.begin(),
                             retired.end());
        impl->has_orphans.store(true, std::memory_order_release);
    }
}

void hp_slot_overflow() {
    std::fprintf(stderr,
                 "tamp: nested hazard-pointer guard: a thread's %zu hazard "
                 "slots belong to one guard at a time\n",
                 HazardDomain::kSlotsPerThread);
    std::abort();
}

}  // namespace reclaim_detail

}  // namespace tamp
