// Tests for the reclamation substrate: hazard pointers and epoch-based
// reclamation.  These are the library's stand-in for the book's garbage
// collector, so their guarantees are load-bearing for every lock-free
// structure.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tamp/reclaim/reclaim.hpp"
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
    for (int i = 0; i < 500; ++i) hazard_retire(new Tracked(i));
    HazardDomain::global().drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

TEST(HazardPointers, ProtectedNodeSurvivesScan) {
    std::atomic<Tracked*> shared{new Tracked(42)};
    HazardSlot<Tracked> hp;
    Tracked* p = hp.protect(shared);
    ASSERT_EQ(p->payload, 42);

    // Unlink and retire while protected.
    shared.store(nullptr);
    const int live_before = Tracked::live.load();
    hazard_retire(p);
    for (int i = 0; i < 5; ++i) HazardDomain::global().scan();
    // Still alive: our hazard names it.
    EXPECT_EQ(Tracked::live.load(), live_before);
    EXPECT_EQ(p->payload, 42);  // safe to dereference

    hp.clear();
    HazardDomain::global().drain();
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
            hazard_retire(old);
        }
    });
    for (int i = 0; i < 2000; ++i) {
        HazardSlot<Tracked> hp;
        Tracked* p = hp.protect(shared);
        // The node cannot be freed while protected: reading it is safe.
        EXPECT_GE(p->payload, 0);
        EXPECT_LE(p->payload, 1);
    }
    stop.store(true);
    swapper.join();
    hazard_retire(shared.exchange(nullptr));
    HazardDomain::global().drain();
}

TEST(HazardPointers, SlotsAreReusableAndBounded) {
    // Claim and release slots repeatedly; claiming more than the per-
    // thread maximum simultaneously would abort, sequential reuse must
    // not.
    for (int round = 0; round < 100; ++round) {
        HazardSlot<Tracked> a;
        HazardSlot<Tracked> b;
        HazardSlot<Tracked> c;
        HazardSlot<Tracked> d;  // = kSlotsPerThread
    }
    SUCCEED();
}

TEST(HazardPointers, OrphansFromDeadThreadsAreAdopted) {
    const int before = Tracked::live.load();
    std::thread t([&] {
        // Retire fewer than the scan threshold, then exit: the nodes go
        // to the orphan list.
        for (int i = 0; i < 10; ++i) hazard_retire(new Tracked(i));
    });
    t.join();
    // A scan from another thread adopts and frees them.
    HazardDomain::global().scan();
    HazardDomain::global().drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

// ------------------------------------------------------------- epoch

TEST(Epoch, RetiredNodesFreedAfterEpochsAdvance) {
    const int before = Tracked::live.load();
    for (int i = 0; i < 100; ++i) {
        EpochGuard g;
        epoch_retire(new Tracked(i));
    }
    EpochDomain::global().drain();
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
        epoch_retire(victim);
    }
    for (int i = 0; i < 10; ++i) EpochDomain::global().collect();
    EXPECT_EQ(Tracked::live.load(), before + 1)
        << "node freed while a pinned thread could still hold it";
    EXPECT_EQ(victim->payload, 7);  // still dereferenceable

    release.store(true);
    reader.join();
    EpochDomain::global().drain();
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
    epoch_retire(p);
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
            epoch_retire(new Tracked(i));
        }
    });
    EpochDomain::global().drain();
    EXPECT_EQ(Tracked::live.load(), before);
}

// ------------------------------------------------------------- qsbr

TEST(Qsbr, RetiredNodesFreedAfterDrain) {
    const int before = Tracked::live.load();
    for (int i = 0; i < 200; ++i) {
        QsbrReadGuard g;
        qsbr_retire(new Tracked(i));
    }
    QsbrDomain::global().drain();
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
    qsbr_retire(victim);
    for (int i = 0; i < 10; ++i) {
        QsbrDomain::global().announce();
        QsbrDomain::global().collect();
    }
    EXPECT_EQ(Tracked::live.load(), before + 1)
        << "node freed while an unquiesced thread could still hold it";
    EXPECT_EQ(victim->payload, 7);  // still dereferenceable

    release.store(true);
    reader.join();  // exit unregisters the reader
    QsbrDomain::global().drain();
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
    qsbr_retire(new Tracked(1));
    QsbrDomain::global().drain();
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
        qsbr_retire(p);
        for (int i = 0; i < 10; ++i) QsbrDomain::global().collect();
        EXPECT_EQ(p->payload, 3);
    }
    QsbrDomain::global().drain();
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

}  // namespace
