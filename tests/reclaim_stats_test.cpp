// The grace-period engine's free counters (tamp/reclaim/grace_period.hpp)
// against the frees that actually ran.  `epoch.freed` / `qsbr.freed` are
// the numerators of `tamp.epoch.freed_per_retired`, so every free must
// land in them: the collects', the retire path's (a bucket whose period
// came round again, and the capped ready list) and an exiting thread's.
//
// Built like any other test; under TAMP_STATS=OFF the counters compile
// to zero and the expectation degrades to "nothing counted".

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/reclaim/epoch.hpp"
#include "tamp/reclaim/qsbr.hpp"

namespace {

using namespace tamp;

std::atomic<std::uint64_t> g_deleted{0};

void counting_delete(void* p) {
    delete static_cast<int*>(p);
    g_deleted.fetch_add(1, std::memory_order_relaxed);
}

// The calling thread retires a few nodes (below the collect threshold, so
// no collect frees them), another thread advances the period by exactly
// three — the retirer's bucket index comes round again with a stale
// period — and one more retire frees that bucket (under kFreeBatch
// nodes, so all of it in that call).
template <typename Domain, typename Freed>
void expect_in_place_frees_counted() {
    Domain& dom = Domain::global();
    constexpr std::size_t kRetired = 10;
    static_assert(kRetired + 1 < Domain::kCollectThreshold);
    static_assert(kRetired <= Domain::kFreeBatch);

    dom.idle();  // this thread must not hold the period back
    const std::uint64_t start = dom.current();
    for (std::size_t i = 0; i < kRetired; ++i) {
        dom.retire(new int(0), counting_delete);
    }
    std::thread advancer([&] {
        dom.idle();  // a QSBR thread registers online: go quiet first
        while (dom.current() < start + 3) dom.collect();
    });
    advancer.join();
    ASSERT_EQ(dom.current(), start + 3);

    const std::uint64_t freed_before = obs::counter<Freed>::total();
    const std::uint64_t deleted_before = g_deleted.load();
    dom.retire(new int(-1), counting_delete);
    const std::uint64_t deleted = g_deleted.load() - deleted_before;
    EXPECT_EQ(deleted, kRetired);
    EXPECT_EQ(obs::counter<Freed>::total() - freed_before,
              obs::kStatsEnabled ? deleted : 0);
    dom.drain();
}

// Every free lands in the counter, whichever path runs it: the capped
// ready-list frees on the retire path, an exiting thread's frees of its
// aged nodes, and drain()'s adoption of the buckets it orphaned.
template <typename Domain, typename Freed>
void expect_every_free_counted() {
    Domain& dom = Domain::global();
    dom.idle();
    const std::uint64_t freed_before = obs::counter<Freed>::total();
    const std::uint64_t deleted_before = g_deleted.load();
    std::thread([&] {
        dom.idle();
        while (dom.record().ready.empty()) {
            dom.retire(new int(0), counting_delete);
        }
    }).join();  // exits with nodes on its ready list and in its buckets
    dom.drain();
    dom.idle();
    const std::uint64_t deleted = g_deleted.load() - deleted_before;
    EXPECT_GT(deleted, Domain::kCollectThreshold);
    EXPECT_EQ(obs::counter<Freed>::total() - freed_before,
              obs::kStatsEnabled ? deleted : 0);
}

TEST(GracePeriodStats, EbrCountsRetirePathFrees) {
    expect_in_place_frees_counted<EpochDomain, obs::ev::epoch_freed>();
}

TEST(GracePeriodStats, QsbrCountsRetirePathFrees) {
    expect_in_place_frees_counted<QsbrDomain, obs::ev::qsbr_freed>();
}

TEST(GracePeriodStats, EbrCountsEveryFree) {
    expect_every_free_counted<EpochDomain, obs::ev::epoch_freed>();
}

TEST(GracePeriodStats, QsbrCountsEveryFree) {
    expect_every_free_counted<QsbrDomain, obs::ev::qsbr_freed>();
}

}  // namespace
