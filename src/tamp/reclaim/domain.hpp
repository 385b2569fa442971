// tamp/reclaim/domain.hpp
//
// The unified SMR policy surface: `tamp::reclaim::domain` is the
// compile-time concept a structure is templated on to pick its
// reclamation substrate, and reclaim::hp / reclaim::ebr / reclaim::qsbr
// are the three adapters over the existing domains (perfbook's ladder —
// hazard pointers, epochs, quiescent-state reclamation).
//
// Shape of a domain D:
//
//   D::kProtects        compile-time bool: does the substrate need
//                       per-pointer protection?  true for hazard
//                       pointers (publish + re-validate before every
//                       dereference); false for EBR/QSBR, whose guard
//                       gives a stable view of everything reachable.
//                       Structures branch on it with `if constexpr`, so
//                       the grace-period instantiations compile to
//                       exactly the pre-refactor code.
//   D::guard            RAII read-side section.  One per operation; a
//                       thread holds at most one HP guard at a time.
//                         g.protect<I>(atomic_ptr) -> T*   slot I: load,
//                           and (HP) publish + re-validate until stable
//                         g.set<I>(ptr)                    slot I: publish
//                           a pointer the caller re-validates itself
//                         g.clear<I>()                     drop slot I
//                       Under EBR/QSBR these are plain acquire loads /
//                       no-ops, inlined away.
//   D::retire(p, del)   hand an unlinked node to the substrate
//   D::retire(p)        same, with the default deleter
//   D::quiescent()      declare "this thread holds no references" — the
//                       QSBR contract point; no-op for HP/EBR
//   D::pending()        nodes awaiting reclamation (tests/benches)
//   D::drain()          reclaim everything reclaimable at quiescence
//   D::name()           for bench labels and diagnostics
//
// Guards expose kGuardSlots (3) protection slots — pred/curr/succ, the
// most any traversal in the catalog holds at once.  They are the three
// hazard slots every thread has, and an HP guard uses its thread's slots
// directly: entry and exit flip a flag in its record, and a slot's shared
// cell is written only when the guard publishes to it and when it clears
// it.  So a thread holds one HP guard at a time; a nested one aborts.
//
// These adapters are the only front end to reclamation: structures,
// tests and benchmarks protect and retire through them, and reach the
// domain classes only for engine steps the adapters do not expose
// (HazardDomain::scan, GracePeriodDomain::collect/announce/idle).  The
// `direct-reclaim-include` lint rule (tools/lint_atomics.py) keeps
// structure headers from including a backend (epoch, grace_period,
// hazard_pointers, qsbr) directly.

#pragma once

#include <concepts>
#include <cstddef>

#include "tamp/reclaim/asym_fence.hpp"
#include "tamp/reclaim/epoch.hpp"
#include "tamp/reclaim/hazard_pointers.hpp"
#include "tamp/reclaim/qsbr.hpp"
#include "tamp/reclaim/retired_node.hpp"

namespace tamp::reclaim {

/// Protection slots every guard exposes (pred/curr/succ).
inline constexpr std::size_t kGuardSlots = HazardDomain::kSlotsPerThread;

template <typename D>
concept domain =
    std::default_initializable<typename D::guard> &&
    !std::copy_constructible<typename D::guard> &&
    requires(void* p, void (*del)(void*)) {
        { D::kProtects } -> std::convertible_to<bool>;
        D::retire(p, del);
        D::quiescent();
        { D::pending() } -> std::convertible_to<std::size_t>;
        D::drain();
        { D::name() } -> std::convertible_to<const char*>;
    };

// ---------------------------------------------------------------- hp ---

/// Hazard pointers: bounded garbage, per-pointer publication.  The guard
/// is the rotating-slot pattern of Michael's paper: protect<I> publishes
/// and re-validates against the source; set<I> publishes a pointer the
/// caller re-validates by other means (e.g. re-reading a marked link).
struct hp {
    static constexpr bool kProtects = true;

    class guard {
      public:
        guard() : rec_(&HazardDomain::global().record()) {
            if (rec_->guarded) HazardDomain::nested_guard();
            rec_->guarded = true;
        }

        ~guard() {
            // One call per slot, not a loop: constant indices let the
            // compiler keep published_ in registers and drop the slots
            // an operation never published to.
            static_assert(kGuardSlots == 3);
            clear<0>();
            clear<1>();
            clear<2>();
            rec_->guarded = false;
        }

        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

        /// Publish-and-revalidate loop on slot I: on return the node
        /// cannot be freed while the slot holds it.
        template <std::size_t I, typename AtomicPtr>
        auto protect(const AtomicPtr& src) {
            static_assert(I < kGuardSlots);
            auto* p = src.load(std::memory_order_acquire);
            while (true) {
                asym::publish(rec_->slots[I], p);
                // seq_cst, not acquire: the fallback's Dekker argument
                // needs this re-read ordered after the seq_cst
                // publication store (asym::publish).  Same instruction as
                // acquire on x86/AArch64, so the asymmetric path loses
                // nothing.
                auto* again = src.load(std::memory_order_seq_cst);
                if (again == p) {
                    published_[I] = (p != nullptr);
                    return p;
                }
                p = again;
            }
        }

        /// Publish a pointer the caller validates by other means.
        template <std::size_t I, typename T>
        void set(T* p) {
            static_assert(I < kGuardSlots);
            asym::publish(rec_->slots[I], p);
            published_[I] = (p != nullptr);
        }

        /// Drop slot I; skips the store when nothing was published.
        template <std::size_t I>
        void clear() {
            static_assert(I < kGuardSlots);
            if (published_[I]) {
                rec_->slots[I].store(nullptr, std::memory_order_release);
                published_[I] = false;
            }
        }

      private:
        HazardDomain::Record* rec_;
        bool published_[kGuardSlots] = {};
    };

    static void retire(void* p, void (*deleter)(void*)) {
        HazardDomain::global().retire(p, deleter);
    }
    template <typename T>
    static void retire(T* p) {
        retire(p, reclaim_detail::delete_as<T>);
    }
    static void quiescent() {}
    static std::size_t pending() { return HazardDomain::global().pending(); }
    static void drain() { HazardDomain::global().drain(); }
    static constexpr const char* name() { return "hp"; }
};

// ---------------------------------------------------------- ebr, qsbr ---

/// The grace-period domains: the guard is the scheme's read section —
/// EpochGuard pins the epoch; QsbrReadGuard is thread-local nesting
/// arithmetic (no store, no fence) whose outermost exit reports a
/// quiescence point once every QsbrReadGuard::kQuiescePeriod operations.
/// Either makes everything reachable during the operation safe to read,
/// so protection is a plain load.
template <typename Policy, typename ReadSection>
struct grace_period {
    static constexpr bool kProtects = false;

    class guard {
      public:
        guard() = default;
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

        template <std::size_t I, typename AtomicPtr>
        auto protect(const AtomicPtr& src) {
            static_assert(I < kGuardSlots);
            return src.load(std::memory_order_acquire);
        }
        template <std::size_t I, typename T>
        void set(T*) {
            static_assert(I < kGuardSlots);
        }
        template <std::size_t I>
        void clear() {
            static_assert(I < kGuardSlots);
        }

      private:
        ReadSection read_section_;
    };

    static void retire(void* p, void (*deleter)(void*)) {
        GracePeriodDomain<Policy>::global().retire(p, deleter);
    }
    template <typename T>
    static void retire(T* p) {
        retire(p, reclaim_detail::delete_as<T>);
    }
    static void quiescent() {
        if constexpr (Policy::kRegistersOnline) {
            GracePeriodDomain<Policy>::global().announce();
        }
    }
    static std::size_t pending() {
        return GracePeriodDomain<Policy>::global().pending();
    }
    static void drain() { GracePeriodDomain<Policy>::global().drain(); }
    static constexpr const char* name() { return Policy::kName; }
};

// Named types, not aliases: diagnostics and test names print them.
struct ebr : grace_period<EbrPolicy, EpochGuard> {};
struct qsbr : grace_period<QsbrPolicy, QsbrReadGuard> {};

static_assert(domain<hp>);
static_assert(domain<ebr>);
static_assert(domain<qsbr>);

}  // namespace tamp::reclaim
