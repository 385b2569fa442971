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
//   D::guard            RAII read-side section.  One per operation.
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
// Guards expose up to kGuardSlots (3) protection slots — pred/curr/succ,
// the most any traversal in the catalog holds at once.  An HP guard
// claims its slots eagerly (a thread-local bitmask update; the slots'
// shared cells are untouched until a publish), so claiming three and
// using one costs nothing.
//
// Structure headers consume SMR exclusively through this header; the
// `direct-reclaim-include` lint rule (tools/lint_atomics.py) keeps
// direct backend includes (epoch, grace_period, hazard_pointers, qsbr)
// from creeping back in.

#pragma once

#include <bit>
#include <concepts>
#include <cstddef>

#include "tamp/reclaim/epoch.hpp"
#include "tamp/reclaim/hazard_pointers.hpp"
#include "tamp/reclaim/qsbr.hpp"

namespace tamp::reclaim {

/// Protection slots every guard exposes (pred/curr/succ).
inline constexpr std::size_t kGuardSlots = 3;

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
        guard() : rec_(&reclaim_detail::hp_record()) {
            unsigned free = ~rec_->claimed &
                            ((1u << HazardDomain::kSlotsPerThread) - 1u);
            if (std::popcount(free) < static_cast<int>(kGuardSlots)) {
                reclaim_detail::hp_slot_overflow();
            }
            for (std::size_t i = 0; i < kGuardSlots; ++i) {
                const unsigned bit = free & (0u - free);  // lowest free
                free &= ~bit;
                bits_[i] = bit;
                cells_[i] = rec_->slots + std::countr_zero(bit);
                published_[i] = false;
            }
            rec_->claimed |= bits_[0] | bits_[1] | bits_[2];
        }

        ~guard() {
            for (std::size_t i = 0; i < kGuardSlots; ++i) {
                if (published_[i]) {
                    cells_[i]->store(nullptr, std::memory_order_release);
                }
            }
            rec_->claimed &= ~(bits_[0] | bits_[1] | bits_[2]);
        }

        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

        /// Publish-and-revalidate loop (HazardSlot::protect, slot I).
        template <std::size_t I, typename AtomicPtr>
        auto protect(const AtomicPtr& src) {
            static_assert(I < kGuardSlots);
            auto* p = src.load(std::memory_order_acquire);
            while (true) {
                publish<I>(p);
                // seq_cst, not acquire: the fallback's Dekker argument
                // needs this re-read ordered after the seq_cst
                // publication store (see HazardSlot::protect).
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
            publish<I>(p);
            published_[I] = (p != nullptr);
        }

        template <std::size_t I>
        void clear() {
            static_assert(I < kGuardSlots);
            if (published_[I]) {
                cells_[I]->store(nullptr, std::memory_order_release);
                published_[I] = false;
            }
        }

      private:
        template <std::size_t I, typename T>
        void publish(T* p) {
            if (asym::enabled()) {
                cells_[I]->store(p, std::memory_order_release);
                asym::light_barrier();
            } else {
                // Fallback: publication must be visible to a scanner
                // before the re-validation read (see HazardSlot).
                // tamp-lint: allow(seqcst-store-reclaim)
                cells_[I]->store(p, std::memory_order_seq_cst);
            }
        }

        reclaim_detail::HpThreadRecord* rec_;
        std::atomic<const void*>* cells_[kGuardSlots];
        unsigned bits_[kGuardSlots];
        bool published_[kGuardSlots];
    };

    static void retire(void* p, void (*deleter)(void*)) {
        HazardDomain::global().retire(p, deleter);
    }
    template <typename T>
    static void retire(T* p) {
        hazard_retire(p);
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
        retire(p, [](void* q) { delete static_cast<T*>(q); });
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
