#include "tamp/reclaim/grace_period.hpp"

#include <algorithm>
#include <iterator>

#include "tamp/obs/timer.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/epoch.hpp"
#include "tamp/reclaim/qsbr.hpp"

namespace tamp {

namespace {

// Free `b` if its grace period has passed by period `now`: a node retired
// at period t was unlinked before its retire, so only a thread announced
// at t or earlier can still hold it, and the period cannot pass t+1 until
// every such thread has announced again (having dropped the reference)
// or gone idle — so at t+2 nobody holds it.  Returns the number freed.
template <typename Bucket>
std::size_t expire(Bucket& b, std::uint64_t now) {
    if (b.nodes.empty() || b.period + 2 > now) return 0;
    std::vector<reclaim_detail::RetiredNode> stale;
    stale.swap(b.nodes);  // a deleter may retire into this bucket
    for (const reclaim_detail::RetiredNode& rn : stale) rn.free();
    return stale.size();
}

template <typename Record>
std::size_t local_pending(const Record& rec) {
    return rec.buckets[0].nodes.size() + rec.buckets[1].nodes.size() +
           rec.buckets[2].nodes.size();
}

}  // namespace

template <typename P>
GracePeriodDomain<P>::GracePeriodDomain() {
    asym::init();
}

template <typename P>
GracePeriodDomain<P>& GracePeriodDomain<P>::global() {
    // Leaked, as HazardDomain: detached threads may retire (or announce)
    // during static destruction.
    static auto* d = new GracePeriodDomain();
    return *d;
}

template <typename P>
GracePeriodDomain<P>::Record::Record()
    // An online record starts announced at the current period: a
    // brand-new thread holds no references, and starting at the live
    // period means it never reads as a straggler for grace periods that
    // predate it.
    : announced(P::kRegistersOnline ? global().current() : kIdle) {
    GracePeriodDomain& dom = global();
    std::lock_guard<std::mutex> guard(dom.mu_);
    dom.records_.push_back(this);
}

template <typename P>
GracePeriodDomain<P>::Record::~Record() {
    GracePeriodDomain& dom = global();
    std::lock_guard<std::mutex> guard(dom.mu_);
    std::erase(dom.records_, this);
    for (Bucket& b : buckets) {
        if (!b.nodes.empty()) dom.orphans_.push_back(std::move(b));
    }
    dom.has_orphans_.store(!dom.orphans_.empty(), std::memory_order_release);
}

template <typename P>
void GracePeriodDomain<P>::retire(void* p, void (*deleter)(void*)) {
    Record& rec = record();
    // The retirer's accesses to *p happen-before the eventual free two
    // periods later.  The grace-period argument rides on the
    // announce/advance protocol, which TSan cannot follow onto `p`
    // itself; state the edge explicitly (RetiredNode::free() acquires).
    TAMP_TSAN_RELEASE(p);
    const std::uint64_t now = period_.load(std::memory_order_acquire);
    Bucket& b = rec.buckets[now % 3];
    if (b.period != now) {
        // The slot last held period now-3 or older (same residue): its
        // grace period expired long ago, so free in place — the amortized
        // reclamation point of the lock-free fast path.
        expire(b, now);
        b.period = now;
    }
    b.nodes.push_back(reclaim_detail::RetiredNode{p, deleter});
    rec.pending.store(local_pending(rec), std::memory_order_relaxed);
    obs::counter<typename P::retired>::inc();
    if (++rec.since_collect >= kCollectThreshold) {
        rec.since_collect = 0;
        collect();
    }
}

template <typename P>
void GracePeriodDomain<P>::collect() {
    obs::scoped_timer<typename P::collect_ns> collect_latency;
    obs::counter<typename P::collects>::inc();
    Record& rec = record();
    const std::uint64_t now = period_.load(std::memory_order_seq_cst);
    // Make every announcement visible before judging stragglers
    // (membarrier under the asymmetric protocol; the fallback's
    // announcements are seq_cst stores pairing with the seq_cst loads
    // below).
    asym::heavy_barrier();
    // The period may advance only once every announced thread has
    // observed it.  Idle threads promised to hold nothing (kIdle never
    // lags).
    bool lagging;
    {
        std::lock_guard<std::mutex> guard(mu_);
        lagging = std::any_of(records_.begin(), records_.end(),
                              [now](const Record* r) {
                                  return r->announced.load(
                                             std::memory_order_seq_cst) < now;
                              });
    }
    std::uint64_t cur = now;
    if (!lagging) {
        // Advance now -> now+1 (one winner; losers' work was equivalent).
        // On failure `cur` holds the period somebody else advanced to.
        if (period_.compare_exchange_strong(cur, now + 1,
                                            std::memory_order_seq_cst)) {
            cur = now + 1;
            obs::counter<typename P::advances>::inc();
            if constexpr (P::kTracesAdvance) {
                obs::trace(obs::trace_ev::kEpochAdvance, cur);
            }
        }
    }
    std::uint64_t freed = 0;
    for (Bucket& b : rec.buckets) freed += expire(b, cur);
    rec.pending.store(local_pending(rec), std::memory_order_relaxed);
    // Adopt orphaned buckets that are old enough; leave younger ones for
    // a later collect.
    if (has_orphans_.load(std::memory_order_acquire)) {
        std::vector<Bucket> ready;
        {
            std::lock_guard<std::mutex> guard(mu_);
            const auto young = std::partition(
                orphans_.begin(), orphans_.end(),
                [cur](const Bucket& b) { return b.period + 2 <= cur; });
            ready.assign(std::make_move_iterator(orphans_.begin()),
                         std::make_move_iterator(young));
            orphans_.erase(orphans_.begin(), young);
            has_orphans_.store(!orphans_.empty(), std::memory_order_relaxed);
        }
        for (Bucket& b : ready) freed += expire(b, cur);
    }
    obs::counter<typename P::freed>::inc(freed);
}

template <typename P>
void GracePeriodDomain<P>::drain() {
    // A few advances age out all three local buckets and any orphans.
    for (int i = 0; i < 4 && pending() > 0; ++i) {
        if constexpr (P::kRegistersOnline) announce();
        collect();
    }
}

template <typename P>
std::size_t GracePeriodDomain<P>::pending() const {
    std::lock_guard<std::mutex> guard(mu_);
    std::size_t n = 0;
    for (const Bucket& b : orphans_) n += b.nodes.size();
    for (const Record* r : records_) {
        n += r->pending.load(std::memory_order_relaxed);
    }
    return n;
}

template class GracePeriodDomain<EbrPolicy>;
template class GracePeriodDomain<QsbrPolicy>;

}  // namespace tamp
