// Tests for the reclamation substrate: hazard pointers and epoch-based
// reclamation.  These are the library's stand-in for the book's garbage
// collector, so their guarantees are load-bearing for every lock-free
// structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>

#include "tamp/core/thread_registry.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/reclaim/domain.hpp"
#include "test_util.hpp"

namespace {

using namespace tamp;
using tamp_test::run_threads;

struct Tracked {
    static std::atomic<int> live;
    int payload = 0;
    Tracked() { live.fetch_add(1); }
    explicit Tracked(int p) : payload(p) { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

// ------------------------------------------------------------- hazard

TEST(HazardPointers, RetiredUnprotectedNodesGetFreed) {
    const int before = Tracked::live.load();
    for (int i = 0; i < 500; ++i) reclaim::hp::retire(new Tracked(i));
    reclaim::hp::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(HazardPointers, ProtectedNodeSurvivesScan) {
    std::atomic<Tracked*> shared{new Tracked(42)};
    reclaim::hp::guard g;
    Tracked* p = g.protect<0>(shared);
    ASSERT_EQ(p->payload, 42);

    // Unlink and retire while protected.
    shared.store(nullptr);
    const int live_before = Tracked::live.load();
    reclaim::hp::retire(p);
    for (int i = 0; i < 5; ++i) HazardDomain::global().scan();
    // Still alive: our hazard names it.
    EXPECT_EQ(Tracked::live.load(), live_before);
    EXPECT_EQ(p->payload, 42);  // safe to dereference

    g.clear<0>();
    reclaim::hp::drain();
    EXPECT_EQ(Tracked::live.load(), live_before - 1);
}

TEST(HazardPointers, ProtectRereadsUntilStable) {
    // protect() must never return a pointer that was already swapped out
    // before the hazard was visible.  Swap continuously and check the
    // returned pointer still equals the source at some point.
    std::atomic<Tracked*> shared{new Tracked(0)};
    std::atomic<bool> stop{false};
    std::thread swapper([&] {
        while (!stop.load()) {
            Tracked* fresh = new Tracked(1);
            Tracked* old = shared.exchange(fresh);
            reclaim::hp::retire(old);
        }
    });
    for (int i = 0; i < 2000; ++i) {
        reclaim::hp::guard g;
        Tracked* p = g.protect<0>(shared);
        // The node cannot be freed while protected: reading it is safe.
        EXPECT_GE(p->payload, 0);
        EXPECT_LE(p->payload, 1);
    }
    stop.store(true);
    swapper.join();
    reclaim::hp::retire(shared.exchange(nullptr));
    reclaim::hp::drain();
}

TEST(HazardPointers, SlotsAreReusableAndBounded) {
    // Sequential guards reuse the thread's slots: each publishes into all
    // three, and each leaves them clear on exit, so the first scan after
    // the node's retire frees it.  (NestedGuardAborts shows the bound: a
    // second guard inside the first aborts.)
    std::atomic<Tracked*> shared{new Tracked(5)};
    for (int round = 0; round < 100; ++round) {
        reclaim::hp::guard g;
        Tracked* p = g.protect<0>(shared);
        g.set<1>(p);
        g.set<2>(p);
        ASSERT_EQ(p->payload, 5);
    }
    reclaim::hp::retire(shared.exchange(nullptr));
    HazardDomain::global().scan();
    EXPECT_EQ(reclaim::hp::pending(), 0u)
        << "a guard left a hazard published after it ended";
}

TEST(HazardPointers, NestedGuardAborts) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            reclaim::hp::guard outer;
            reclaim::hp::guard inner;
        },
        "nested hazard-pointer guard");
}

TEST(HazardPointers, OrphansFromDeadThreadsAreAdopted) {
    const int before = Tracked::live.load();
    std::thread t([&] {
        // Retire fewer than the scan threshold, then exit: the nodes go
        // to the orphan list.
        for (int i = 0; i < 10; ++i) reclaim::hp::retire(new Tracked(i));
    });
    t.join();
    // A scan from another thread adopts and frees them.
    HazardDomain::global().scan();
    reclaim::hp::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

// ------------------------------------------------------------- epoch

TEST(Epoch, RetiredNodesFreedAfterEpochsAdvance) {
    const int before = Tracked::live.load();
    for (int i = 0; i < 100; ++i) {
        EpochGuard g;
        reclaim::ebr::retire(new Tracked(i));
    }
    reclaim::ebr::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(Epoch, PinnedReaderBlocksReclamation) {
    const int before = Tracked::live.load();
    std::atomic<bool> pinned{false};
    std::atomic<bool> release{false};
    std::thread reader([&] {
        EpochGuard g;
        pinned.store(true);
        while (!release.load()) std::this_thread::yield();
    });
    while (!pinned.load()) std::this_thread::yield();

    // Retire from this thread while the reader is pinned at the current
    // epoch: nothing retired *now* may be freed until it unpins.
    Tracked* victim = new Tracked(7);
    {
        EpochGuard g;
        reclaim::ebr::retire(victim);
    }
    for (int i = 0; i < 10; ++i) EpochDomain::global().collect();
    EXPECT_EQ(Tracked::live.load(), before + 1)
        << "node freed while a pinned thread could still hold it";
    EXPECT_EQ(victim->payload, 7);  // still dereferenceable

    release.store(true);
    reader.join();
    reclaim::ebr::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(Epoch, GuardsNest) {
    EpochGuard outer;
    {
        EpochGuard inner;
        {
            EpochGuard innermost;
        }
    }
    // Still pinned here; a retire must not be freed under us.
    Tracked* p = new Tracked(3);
    reclaim::ebr::retire(p);
    for (int i = 0; i < 10; ++i) EpochDomain::global().collect();
    EXPECT_EQ(p->payload, 3);
}

TEST(Epoch, EpochAdvancesWhenNobodyPinned) {
    const auto e0 = EpochDomain::global().current();
    for (int i = 0; i < 5; ++i) EpochDomain::global().collect();
    EXPECT_GT(EpochDomain::global().current(), e0);
}

TEST(Epoch, ConcurrentRetireAndCollectIsSafe) {
    const int before = Tracked::live.load();
    run_threads(4, [&](std::size_t) {
        for (int i = 0; i < 2000; ++i) {
            EpochGuard g;
            reclaim::ebr::retire(new Tracked(i));
        }
    });
    reclaim::ebr::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

// ------------------------------------------------------------- qsbr

TEST(Qsbr, RetiredNodesFreedAfterDrain) {
    const int before = Tracked::live.load();
    for (int i = 0; i < 200; ++i) {
        QsbrReadGuard g;
        reclaim::qsbr::retire(new Tracked(i));
    }
    reclaim::qsbr::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(Qsbr, UnquiescedReaderBlocksReclamation) {
    const int before = Tracked::live.load();
    std::atomic<bool> registered{false};
    std::atomic<bool> release{false};
    std::thread reader([&] {
        // Register with the domain and then never report quiescence: the
        // QSBR contract says anything retired after this point must stay
        // allocated until we do (or exit).
        QsbrDomain::global().announce();
        registered.store(true);
        while (!release.load()) std::this_thread::yield();
    });
    while (!registered.load()) std::this_thread::yield();

    Tracked* victim = new Tracked(7);
    reclaim::qsbr::retire(victim);
    for (int i = 0; i < 10; ++i) {
        QsbrDomain::global().announce();
        QsbrDomain::global().collect();
    }
    EXPECT_EQ(Tracked::live.load(), before + 1)
        << "node freed while an unquiesced thread could still hold it";
    EXPECT_EQ(victim->payload, 7);  // still dereferenceable

    release.store(true);
    reader.join();  // exit unregisters the reader
    reclaim::qsbr::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(Qsbr, OfflineThreadDoesNotBlockReclamation) {
    const int before = Tracked::live.load();
    std::atomic<bool> offline{false};
    std::atomic<bool> release{false};
    std::thread sleeper([&] {
        QsbrDomain::global().announce();
        QsbrDomain::global().idle();  // "I hold no shared pointers"
        offline.store(true);
        while (!release.load()) std::this_thread::yield();
    });
    while (!offline.load()) std::this_thread::yield();

    // The sleeper never reports quiescence, but offline threads are
    // excluded from the grace-period handshake.
    reclaim::qsbr::retire(new Tracked(1));
    reclaim::qsbr::drain();
    EXPECT_EQ(Tracked::live.load(), before);

    release.store(true);
    sleeper.join();
}

TEST(Qsbr, RetireUnderGuardStaysDereferenceable) {
    const int before = Tracked::live.load();
    {
        QsbrReadGuard outer;
        {
            QsbrReadGuard inner;  // guards nest; only the outermost exit
                                  // counts toward auto-quiescence
        }
        // This thread has not passed through a quiescent state since the
        // retire below, so collect() may never free the node under us.
        Tracked* p = new Tracked(3);
        reclaim::qsbr::retire(p);
        for (int i = 0; i < 10; ++i) QsbrDomain::global().collect();
        EXPECT_EQ(p->payload, 3);
    }
    reclaim::qsbr::drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(Qsbr, IntervalAdvancesWhenEveryoneQuiesces) {
    const auto i0 = QsbrDomain::global().current();
    for (int i = 0; i < 5; ++i) {
        QsbrDomain::global().announce();
        QsbrDomain::global().collect();
    }
    EXPECT_GT(QsbrDomain::global().current(), i0);
}

// ---------------------------------------------------- domain adapters
//
// The reclaim::domain facades (tamp/reclaim/domain.hpp) must behave
// identically from a consumer's perspective: protect yields the current
// value and keeps it dereferenceable, retire eventually frees, drain on
// an idle domain frees everything.

template <typename D>
class DomainAdapter : public ::testing::Test {};

using AllDomains =
    ::testing::Types<reclaim::hp, reclaim::ebr, reclaim::qsbr>;
TYPED_TEST_SUITE(DomainAdapter, AllDomains);

TYPED_TEST(DomainAdapter, ProtectReadsCurrentValue) {
    using D = TypeParam;
    std::atomic<Tracked*> src{new Tracked(42)};
    {
        typename D::guard g;
        Tracked* p = g.template protect<0>(src);
        EXPECT_EQ(p->payload, 42);
        // set/clear are no-ops under grace-period domains but must
        // compile and be callable through the same interface.
        g.template set<1>(p);
        g.template clear<1>();
    }
    delete src.load();
}

TYPED_TEST(DomainAdapter, RetireFreesAfterDrain) {
    using D = TypeParam;
    const int before = Tracked::live.load();
    for (int i = 0; i < 100; ++i) {
        typename D::guard g;
        D::retire(new Tracked(i));
    }
    D::drain();
    EXPECT_EQ(Tracked::live.load(), before);
    EXPECT_EQ(D::pending(), 0u);
}

TYPED_TEST(DomainAdapter, ProtectedNodeSurvivesRetire) {
    using D = TypeParam;
    std::atomic<Tracked*> src{new Tracked(9)};
    const int live_before = Tracked::live.load();
    {
        typename D::guard g;
        Tracked* p = g.template protect<0>(src);
        src.store(nullptr);
        D::retire(p);
        // Whatever the substrate (hazard slot or unfinished grace
        // period), the node must remain readable inside the guard.
        EXPECT_EQ(p->payload, 9);
        EXPECT_EQ(Tracked::live.load(), live_before);
    }
    D::drain();
    EXPECT_EQ(Tracked::live.load(), live_before - 1);
}

TYPED_TEST(DomainAdapter, NameIsStable) {
    using D = TypeParam;
    const char* n = D::name();
    ASSERT_NE(n, nullptr);
    EXPECT_GT(std::char_traits<char>::length(n), 0u);
}

// ------------------------------------------------- grace-period batching
//
// The retire side of the engine EBR and QSBR share
// (tamp/reclaim/grace_period.hpp): a batch that fills after another
// thread advanced the period shares that grace period instead of running
// the barrier, and aged nodes wait on a ready list that each retire()
// frees at most kFreeBatch of.  The retiring bodies run on fresh threads,
// so each starts with an empty record; every thread that touches the
// domain goes idle first so that it never holds the period back.

std::atomic<std::uint64_t> g_deleted{0};

void counting_delete(void* p) {
    delete static_cast<int*>(p);
    g_deleted.fetch_add(1, std::memory_order_relaxed);
}

template <typename Policy>
class GracePeriodBatch : public ::testing::Test {
  protected:
    using Domain = GracePeriodDomain<Policy>;

    GracePeriodBatch() { dom().idle(); }

    static Domain& dom() { return Domain::global(); }

    static void retire_one() { dom().retire(new int(0), counting_delete); }

    // Retire until a whole bucket has aged onto the ready list and is
    // waiting there; returns the number retired.
    static std::size_t retire_until_ready() {
        std::size_t retired = 0;
        while (dom().record().ready.empty()) {
            retire_one();
            ++retired;
            if (retired > 8 * Domain::kCollectThreshold) {
                ADD_FAILURE() << "no bucket aged onto the ready list";
                break;
            }
        }
        return retired;
    }

    // Advance the period by one from a helper thread that holds nothing.
    static void advance_elsewhere() {
        std::thread([] {
            dom().idle();
            const std::uint64_t target = dom().current() + 1;
            while (dom().current() < target) dom().collect();
        }).join();
    }
};

using GracePeriodPolicies = ::testing::Types<EbrPolicy, QsbrPolicy>;
TYPED_TEST_SUITE(GracePeriodBatch, GracePeriodPolicies);

TYPED_TEST(GracePeriodBatch, BatchAfterAnotherThreadsAdvanceSkipsTheBarrier) {
    using D = typename TestFixture::Domain;
    using collects = obs::counter<typename TypeParam::collects>;
    using shared = obs::counter<typename TypeParam::shared>;
    std::thread([] {
        TestFixture::dom().idle();
        TestFixture::dom().collect();  // this thread's last attempt: now
        for (std::size_t i = 0; i + 1 < D::kCollectThreshold; ++i) {
            TestFixture::retire_one();
        }
        TestFixture::advance_elsewhere();

        // The batch fills after that advance: it shares it.
        const std::uint64_t period = TestFixture::dom().current();
        const std::uint64_t barriers = asym::heavy_barrier_count();
        const std::uint64_t collects0 = collects::total();
        const std::uint64_t shared0 = shared::total();
        TestFixture::retire_one();
        EXPECT_EQ(TestFixture::dom().current(), period)
            << "a shared grace period must not advance the period";
        EXPECT_EQ(collects::total(), collects0);
        EXPECT_EQ(shared::total() - shared0, obs::kStatsEnabled ? 1u : 0u);
        if (asym::enabled()) {
            EXPECT_EQ(asym::heavy_barrier_count(), barriers)
                << "a shared grace period must not issue a membarrier";
        }

        // No advance since: the next batch runs the barrier and advances.
        for (std::size_t i = 0; i < D::kCollectThreshold; ++i) {
            TestFixture::retire_one();
        }
        EXPECT_EQ(TestFixture::dom().current(), period + 1);
        EXPECT_EQ(collects::total() - collects0, obs::kStatsEnabled ? 1u : 0u);
        if (asym::enabled()) {
            EXPECT_EQ(asym::heavy_barrier_count(), barriers + 1);
        }
        TestFixture::dom().drain();
    }).join();
}

TYPED_TEST(GracePeriodBatch, NoRetireFreesMoreThanTheFreeBatch) {
    using D = typename TestFixture::Domain;
    std::thread([] {
        TestFixture::dom().idle();
        std::uint64_t most = 0;
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < 6 * D::kCollectThreshold; ++i) {
            const std::uint64_t before = g_deleted.load();
            TestFixture::retire_one();
            const std::uint64_t freed = g_deleted.load() - before;
            most = std::max(most, freed);
            total += freed;
        }
        EXPECT_LE(most, D::kFreeBatch);
        // Whole buckets aged meanwhile, each larger than the cap.
        EXPECT_GT(total, 2 * D::kCollectThreshold);
        TestFixture::dom().drain();
    }).join();
}

TYPED_TEST(GracePeriodBatch, PendingCountsTheReadyListAndDrainEmptiesIt) {
    std::thread([] {
        TestFixture::dom().idle();
        const std::size_t pending0 = TestFixture::dom().pending();
        const std::uint64_t deleted0 = g_deleted.load();
        const std::size_t retired = TestFixture::retire_until_ready();
        const std::size_t deleted = g_deleted.load() - deleted0;
        EXPECT_EQ(TestFixture::dom().pending() - pending0, retired - deleted);

        TestFixture::dom().drain();
        EXPECT_TRUE(TestFixture::dom().record().ready.empty());
        EXPECT_EQ(g_deleted.load() - deleted0, retired);
        EXPECT_EQ(TestFixture::dom().pending(), 0u);
    }).join();
}

TYPED_TEST(GracePeriodBatch, ExitingThreadFreesItsAgedNodes) {
    const std::size_t pending0 = TestFixture::dom().pending();
    const std::uint64_t deleted0 = g_deleted.load();
    std::size_t retired = 0;
    std::size_t ready_at_exit = 0;
    std::uint64_t deleted_before_exit = 0;
    std::thread([&] {
        TestFixture::dom().idle();
        retired = TestFixture::retire_until_ready();
        ready_at_exit = TestFixture::dom().record().ready.size();
        deleted_before_exit = g_deleted.load() - deleted0;
    }).join();
    const std::uint64_t deleted = g_deleted.load() - deleted0;
    ASSERT_GT(ready_at_exit, 0u);
    EXPECT_GE(deleted - deleted_before_exit, ready_at_exit)
        << "aged nodes were orphaned instead of freed at exit";
    // Only the young buckets were orphaned; a later collect adopts them.
    EXPECT_EQ(TestFixture::dom().pending() - pending0, retired - deleted);
    TestFixture::dom().drain();
    TestFixture::dom().idle();
    EXPECT_EQ(g_deleted.load() - deleted0, retired);
}

// ------------------------------------------------------- recycled ids
//
// A thread that takes over an exited thread's dense id takes over its
// records too (one cell per id in each domain).  It must start the way a
// brand-new thread does, whatever state the previous owner left.  Each
// test runs thread A, then thread B, and asserts B got A's id.

void wait_for(const std::atomic<int>& stage, int value) {
    while (stage.load(std::memory_order_acquire) != value) {
        std::this_thread::yield();
    }
}

TEST(Qsbr, RecycledIdStartsAnnouncedAtTheLivePeriod) {
    QsbrDomain& dom = QsbrDomain::global();
    dom.idle();
    std::size_t id_a = 0;
    std::thread([&] {
        id_a = thread_id();
        QsbrReadGuard g;
        dom.retire(new int(0), counting_delete);
    }).join();
    // A exited announced; its exit left the record idle.
    const std::uint64_t p0 = dom.current();
    dom.collect();
    ASSERT_EQ(dom.current(), p0 + 1) << "an exited thread held the period";

    std::atomic<int> stage{0};
    std::size_t id_b = 0;
    std::thread b([&] {
        id_b = thread_id();
        { QsbrReadGuard g; }  // attaches: announced at the live period
        EXPECT_EQ(dom.record().announced.load(), dom.current());
        stage.store(1, std::memory_order_release);
        wait_for(stage, 2);
        dom.announce();  // B's quiescent point
        stage.store(3, std::memory_order_release);
    });
    wait_for(stage, 1);
    ASSERT_EQ(id_b, id_a);
    const std::uint64_t p = dom.current();
    for (int i = 0; i < 3; ++i) dom.collect();
    EXPECT_EQ(dom.current(), p + 1) << "B does not hold back its own period";
    stage.store(2, std::memory_order_release);
    wait_for(stage, 3);
    dom.collect();
    EXPECT_EQ(dom.current(), p + 2);
    b.join();
    dom.drain();
    dom.idle();
}

// drain() announces for its caller between attempts and hands it back as
// it found it.  D is new to QSBR when it drains, so it leaves unattached
// and idle: while it waits it holds back no grace period, and its next
// read section announces again.
TEST(Qsbr, DrainLeavesANewCallerUnattachedAndIdle) {
    QsbrDomain& dom = QsbrDomain::global();
    const int before = Tracked::live.load();
    reclaim::qsbr::retire(new Tracked(1));  // something for D to drain
    std::atomic<int> stage{0};
    std::thread d([&] {
        reclaim::qsbr::drain();
        stage.store(1, std::memory_order_release);
        wait_for(stage, 2);
        QsbrReadGuard g;
        EXPECT_EQ(dom.record().announced.load(), dom.current())
            << "D's read section did not announce";
    });
    wait_for(stage, 1);
    reclaim::qsbr::retire(new Tracked(2));
    reclaim::qsbr::drain();
    EXPECT_EQ(reclaim::qsbr::pending(), 0u)
        << "D, waiting after its drain(), held the period back";
    EXPECT_EQ(Tracked::live.load(), before);
    stage.store(2, std::memory_order_release);
    d.join();
}

TEST(Qsbr, DrainLeavesAnIdleCallerIdleAndAnAnnouncedOneAnnounced) {
    QsbrDomain& dom = QsbrDomain::global();
    dom.idle();  // this thread holds no references
    const int before = Tracked::live.load();
    std::thread([&] {
        dom.announce();
        reclaim::qsbr::retire(new Tracked(1));
        dom.drain();
        EXPECT_EQ(dom.record().announced.load(), dom.current());
        dom.idle();
        reclaim::qsbr::retire(new Tracked(2));
        dom.drain();
        EXPECT_EQ(dom.record().announced.load(), QsbrDomain::kIdle);
    }).join();
    EXPECT_EQ(Tracked::live.load(), before);
}

// A retire outside a read section holds no references: it leaves a new
// thread unattached and idle, so the thread holds back no grace period
// while it waits.
TEST(Qsbr, AThreadThatOnlyRetiresHoldsBackNoGracePeriod) {
    QsbrDomain& dom = QsbrDomain::global();
    dom.idle();  // this thread holds no references
    const int before = Tracked::live.load();
    std::atomic<int> stage{0};
    std::thread r([&] {
        reclaim::qsbr::retire(new Tracked(1));
        stage.store(1, std::memory_order_release);
        wait_for(stage, 2);
    });
    wait_for(stage, 1);
    const std::uint64_t p = dom.current();
    for (int i = 0; i < 2; ++i) {
        dom.announce();
        dom.collect();
    }
    EXPECT_EQ(dom.current(), p + 2) << "the retiring thread held the period";
    stage.store(2, std::memory_order_release);
    r.join();
    reclaim::qsbr::drain();
    dom.idle();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(Epoch, RecycledIdStartsIdle) {
    EpochDomain& dom = EpochDomain::global();
    std::size_t id_a = 0;
    std::thread([&] {
        id_a = thread_id();
        dom.announce();  // exits pinned: its exit must leave it idle
        dom.retire(new int(0), counting_delete);
    }).join();

    std::atomic<int> stage{0};
    std::size_t id_b = 0;
    std::thread b([&] {
        id_b = thread_id();
        (void)dom.record();  // attaches, outside any guard
        stage.store(1, std::memory_order_release);
        wait_for(stage, 2);
    });
    wait_for(stage, 1);
    ASSERT_EQ(id_b, id_a);
    const std::uint64_t p = dom.current();
    dom.collect();
    dom.collect();
    EXPECT_EQ(dom.current(), p + 2) << "an idle thread held the period";
    stage.store(2, std::memory_order_release);
    b.join();
    dom.drain();
}

std::atomic<const void*> g_watched{nullptr};
std::atomic<bool> g_watched_freed{false};

void watching_delete(void* p) {
    if (p == g_watched.load()) g_watched_freed.store(true);
    delete static_cast<int*>(p);
}

TEST(HazardPointers, RecycledIdStartsWithNoGuardOpen) {
    int* node = new int(7);
    g_watched.store(node);
    g_watched_freed.store(false);
    std::atomic<int*> shared{node};
    std::size_t id_a = 0;
    std::thread([&] {
        id_a = thread_id();
        reclaim::hp::guard g;
        int* p = g.protect<0>(shared);
        shared.store(nullptr);
        reclaim::hp::retire(p, watching_delete);  // below the threshold
    }).join();

    std::size_t id_b = 0;
    std::thread([&] {
        id_b = thread_id();
        reclaim::hp::guard g;  // aborts if A's guard were still open
        g.clear<0>();
        HazardDomain::global().scan();
    }).join();
    ASSERT_EQ(id_b, id_a);
    EXPECT_TRUE(g_watched_freed.load())
        << "B's scan did not free A's unprotected node";
    reclaim::hp::drain();
}

// ----------------------------------------------------- private domains
//
// A domain the program constructs is independent of global(): its
// threads' records, exit hooks and nodes are its own.  Once destroyed,
// the exit of a thread that used it must not touch it (ASan reports a
// use after free if it does).

template <typename Domain>
void expect_private_domain_is_independent() {
    constexpr std::size_t kPerThread = 100;
    // Takes the calling thread into the domain, holding nothing.
    const auto enter = [](Domain& d) {
        if constexpr (std::is_same_v<Domain, HazardDomain>) {
            (void)d.record();
        } else {
            d.idle();  // a QSBR thread registers online
        }
    };
    auto dom = std::make_unique<Domain>();
    const std::size_t hp0 = reclaim::hp::pending();
    const std::size_t ebr0 = reclaim::ebr::pending();
    const std::size_t qsbr0 = reclaim::qsbr::pending();
    const std::uint64_t deleted0 = g_deleted.load();

    std::atomic<int> stage{0};
    std::thread late([&] {
        enter(*dom);
        stage.store(1, std::memory_order_release);
        wait_for(stage, 2);
    });
    wait_for(stage, 1);
    run_threads(2, [&](std::size_t) {
        enter(*dom);
        for (std::size_t i = 0; i < kPerThread; ++i) {
            dom->retire(new int(0), counting_delete);
        }
    });
    dom->drain();
    EXPECT_EQ(g_deleted.load() - deleted0, 2 * kPerThread);
    EXPECT_EQ(dom->pending(), 0u);
    EXPECT_EQ(reclaim::hp::pending(), hp0);
    EXPECT_EQ(reclaim::ebr::pending(), ebr0);
    EXPECT_EQ(reclaim::qsbr::pending(), qsbr0);

    dom.reset();
    stage.store(2, std::memory_order_release);
    late.join();  // its exit must not reach the destroyed domain
}

TEST(HazardPointers, PrivateDomainIsIndependentOfTheGlobalOne) {
    expect_private_domain_is_independent<HazardDomain>();
}

TEST(Epoch, PrivateDomainIsIndependentOfTheGlobalOne) {
    expect_private_domain_is_independent<EpochDomain>();
}

TEST(Qsbr, PrivateDomainIsIndependentOfTheGlobalOne) {
    expect_private_domain_is_independent<QsbrDomain>();
}

}  // namespace
