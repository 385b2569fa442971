#include "tamp/reclaim/grace_period.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "tamp/obs/timer.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/epoch.hpp"
#include "tamp/reclaim/qsbr.hpp"

namespace tamp {

namespace {

using reclaim_detail::RetiredNode;

constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

// Has the grace period of `b` passed by period `now`?  A node retired at
// period t was unlinked before its retire, so only a thread announced at
// t or earlier can still hold it, and the period cannot pass t+1 until
// every such thread has announced again (having dropped the reference)
// or gone idle — so at t+2 nobody holds it.  The rule reads only the
// period value, so it holds whichever thread advanced it.
template <typename Bucket>
bool aged(const Bucket& b, std::uint64_t now) {
    return b.period + 2 <= now;
}

// Move `nodes` to the ready list.  The list has usually been drained by
// the time a bucket ages, so this is a swap, not a copy.
void make_ready(std::vector<RetiredNode>& ready,
                std::vector<RetiredNode>& nodes) {
    if (ready.empty()) {
        ready.swap(nodes);
    } else {
        ready.insert(ready.end(), nodes.begin(), nodes.end());
        nodes.clear();
    }
}

// Move every bucket of `rec` whose grace period has passed by `now` to
// its ready list.
template <typename Record>
void age(Record& rec, std::uint64_t now) {
    for (auto& b : rec.buckets) {
        if (aged(b, now)) make_ready(rec.ready, b.nodes);
    }
}

// Free up to `limit` nodes from the ready list.  Each node leaves the
// list before its deleter runs: a deleter may retire, and so append.
template <typename Record>
std::size_t free_ready(Record& rec, std::size_t limit) {
    std::size_t n = 0;
    for (; n < limit && !rec.ready.empty(); ++n) {
        const RetiredNode rn = rec.ready.back();
        rec.ready.pop_back();
        rn.free();
    }
    return n;
}

template <typename Record>
void publish_pending(Record& rec) {
    std::size_t n = rec.ready.size();
    for (const auto& b : rec.buckets) n += b.nodes.size();
    rec.pending.store(n, std::memory_order_relaxed);
}

}  // namespace

template <typename P>
GracePeriodDomain<P>::GracePeriodDomain() {
    asym::init();
    add_thread_exit_hook(ExitOrder::kReclaim, &on_exit, this);
}

template <typename P>
GracePeriodDomain<P>::~GracePeriodDomain() {
    remove_thread_exit_hook(&on_exit, this);
}

template <typename P>
void GracePeriodDomain<P>::on_exit(void* self, std::size_t tid) {
    auto& dom = *static_cast<GracePeriodDomain*>(self);
    Record* rec = dom.records_.find(tid);
    if (rec == nullptr) return;
    // What has aged is safe to free now; only young buckets are orphaned.
    // Outside the lock: a deleter may retire, and a retire may collect.
    age(*rec, dom.current());
    obs::counter<typename P::freed>::inc(free_ready(*rec, kAll));
    std::lock_guard<std::mutex> guard(dom.mu_);
    for (Bucket& b : rec->buckets) {
        if (b.nodes.empty()) continue;
        dom.orphaned_.fetch_add(b.nodes.size(), std::memory_order_relaxed);
        dom.orphans_.push_back(std::move(b));  // leaves b.nodes empty
    }
    publish_pending(*rec);
    idle(*rec);
    rec->attached = false;
}

template <typename P>
void GracePeriodDomain<P>::retire(void* p, void (*deleter)(void*)) {
    // Not record(): a retire outside a read section holds no references,
    // and attaching (announcing) a thread that only retires would make it
    // gate every grace period until it announces, idles or exits.
    Record& rec = records_.local();
    // The retirer's accesses to *p happen-before the eventual free two
    // periods later.  The grace-period argument rides on the
    // announce/advance protocol, which TSan cannot follow onto `p`
    // itself; state the edge explicitly (RetiredNode::free() acquires).
    TAMP_TSAN_RELEASE(p);
    const std::uint64_t now = period_.load(std::memory_order_acquire);
    Bucket& b = rec.buckets[now % 3];
    if (b.period != now) {
        // The slot last held period now-3 or older (same residue): its
        // grace period expired long ago.
        make_ready(rec.ready, b.nodes);
        b.period = now;
    }
    b.nodes.push_back(RetiredNode{p, deleter});
    obs::counter<typename P::retired>::inc();
    if (++rec.since_collect >= kCollectThreshold) {
        rec.since_collect = 0;
        if (now > rec.collected_at) {
            // Another thread advanced the period since this thread's last
            // attempt: that grace period serves this batch too.
            obs::counter<typename P::shared>::inc();
            rec.collected_at = now;
            age(rec, now);
        } else {
            age(rec, advance(rec));
        }
    }
    obs::counter<typename P::freed>::inc(free_ready(rec, kFreeBatch));
    publish_pending(rec);
}

template <typename P>
std::uint64_t GracePeriodDomain<P>::advance(Record& rec) {
    obs::scoped_timer<typename P::collect_ns> collect_latency;
    obs::counter<typename P::collects>::inc();
    const std::uint64_t now = period_.load(std::memory_order_seq_cst);
    // Make every announcement visible before judging stragglers
    // (membarrier under the asymmetric protocol; the fallback's
    // announcements are seq_cst stores pairing with the seq_cst loads
    // below).
    asym::heavy_barrier();
    // The period may advance only once every announced thread has
    // observed it.  Idle threads promised to hold nothing (kIdle never
    // lags).
    bool lagging = false;
    records_.for_each([now, &lagging](std::size_t, const Record& r) {
        lagging = lagging ||
                  r.announced.load(std::memory_order_seq_cst) < now;
    });
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
    // Every attempt, batched or explicit, starts the caller's next batch.
    rec.collected_at = cur;
    rec.since_collect = 0;
    // Adopt orphaned buckets that are old enough; leave younger ones for
    // a later collect.
    if (orphaned_.load(std::memory_order_relaxed) != 0) {
        std::lock_guard<std::mutex> guard(mu_);
        const auto young = std::partition(
            orphans_.begin(), orphans_.end(),
            [cur](const Bucket& b) { return aged(b, cur); });
        for (auto it = orphans_.begin(); it != young; ++it) {
            orphaned_.fetch_sub(it->nodes.size(), std::memory_order_relaxed);
            make_ready(rec.ready, it->nodes);
        }
        orphans_.erase(orphans_.begin(), young);
    }
    return cur;
}

template <typename P>
void GracePeriodDomain<P>::collect() {
    Record& rec = record();
    age(rec, advance(rec));
    obs::counter<typename P::freed>::inc(free_ready(rec, kAll));
    publish_pending(rec);
}

template <typename P>
void GracePeriodDomain<P>::drain() {
    // A few advances age out all three local buckets and any orphans.
    const auto attempts = [this] {
        for (int i = 0; i < 4 && pending() > 0; ++i) {
            if constexpr (P::kRegistersOnline) announce();
            collect();
        }
    };
    if constexpr (!P::kRegistersOnline) {
        attempts();
    } else {
        // The caller leaves as it came: idle (and unattached, if it was,
        // as the exit hook leaves a record, so that its next record()
        // announces again) or announced, at the new period.
        Record& rec = records_.local();
        const bool attached = rec.attached;
        const bool was_idle =
            rec.announced.load(std::memory_order_relaxed) == kIdle;
        attempts();
        rec.attached = attached;
        if (was_idle) {
            idle(rec);
        } else {
            announce(rec);
        }
    }
}

template <typename P>
std::size_t GracePeriodDomain<P>::pending() const {
    std::size_t n = orphaned_.load(std::memory_order_relaxed);
    records_.for_each([&n](std::size_t, const Record& r) {
        n += r.pending.load(std::memory_order_relaxed);
    });
    return n;
}

template class GracePeriodDomain<EbrPolicy>;
template class GracePeriodDomain<QsbrPolicy>;

}  // namespace tamp
