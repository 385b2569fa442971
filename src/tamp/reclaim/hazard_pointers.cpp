#include "tamp/reclaim/hazard_pointers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "tamp/obs/timer.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/asym_fence.hpp"

namespace tamp {

using reclaim_detail::RetiredNode;

HazardDomain::HazardDomain() {
    asym::init();
    add_thread_exit_hook(ExitOrder::kReclaim, &on_exit, this);
}

HazardDomain::~HazardDomain() { remove_thread_exit_hook(&on_exit, this); }

void HazardDomain::on_exit(void* self, std::size_t tid) {
    auto& dom = *static_cast<HazardDomain*>(self);
    Record* rec = dom.records_.find(tid);
    if (rec == nullptr || rec->retired.empty()) return;
    // Orphans count toward the exiting thread's batch: threads too short
    // to fill one still scan once their lists add up to one.
    if (rec->retired.size() + dom.orphaned_.load(std::memory_order_relaxed) >=
        rec->scan_threshold) {
        dom.scan();
    }
    std::lock_guard<std::mutex> guard(dom.mu_);
    dom.orphans_.insert(dom.orphans_.end(), rec->retired.begin(),
                        rec->retired.end());
    dom.orphaned_.store(dom.orphans_.size(), std::memory_order_relaxed);
    rec->retired.clear();
    rec->pending.store(0, std::memory_order_relaxed);
}

void HazardDomain::scan() {
    obs::scoped_timer<obs::ev::hp_scan_ns> scan_latency;
    Record& rec = record();
    // Adopt orphans so nodes retired by dead threads still get freed.
    // The count keeps the common no-orphans scan lock-free.
    if (orphaned_.load(std::memory_order_relaxed) != 0) {
        std::lock_guard<std::mutex> guard(mu_);
        rec.retired.insert(rec.retired.end(), orphans_.begin(),
                           orphans_.end());
        orphans_.clear();
        orphaned_.store(0, std::memory_order_relaxed);
    }
    // R = max(kScanThreshold, 2H), H the slots a scan reads (header).
    rec.scan_threshold = std::max(
        kScanThreshold, 2 * kSlotsPerThread * thread_id_high_water_mark());

    // Stage 1: make every reader's publication visible (membarrier under
    // the asymmetric protocol; under the fallback the seq_cst loads below
    // pair with the seq_cst publication stores), then snapshot all
    // published hazards into a sorted array — O(H log H) once, O(log H)
    // per retiree below, instead of a hash-set probe per retiree.
    asym::heavy_barrier();
    std::vector<const void*> protected_ptrs;
    records_.for_each([&protected_ptrs](std::size_t, const Record& r) {
        for (const auto& slot : r.slots) {
            const void* p = slot.load(std::memory_order_seq_cst);
            if (p != nullptr) protected_ptrs.push_back(p);
        }
    });
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
    rec.pending.store(rec.retired.size(), std::memory_order_relaxed);
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
    std::size_t n = orphaned_.load(std::memory_order_relaxed);
    records_.for_each([&n](std::size_t, const Record& r) {
        n += r.pending.load(std::memory_order_relaxed);
    });
    return n;
}

void HazardDomain::nested_guard() {
    std::fprintf(stderr,
                 "tamp: nested hazard-pointer guard: a thread's %zu hazard "
                 "slots belong to one guard at a time\n",
                 kSlotsPerThread);
    std::abort();
}

}  // namespace tamp
