// tamp/reclaim/epoch.hpp
//
// Epoch-based reclamation (EBR) — the second standard GC substitute, used
// where traversals touch many nodes and per-node hazard publication would
// dominate (skiplists, split-ordered hash tables).
//
// The classic three-epoch scheme: threads *pin* the global epoch on entry
// to an operation and unpin on exit; a node retired in epoch e may be
// freed once the global epoch has advanced twice past e, because any
// thread that could have seen the node must have been pinned at e or
// earlier and has since unpinned.  The global epoch advances only when all
// pinned threads have caught up with it.  The machinery — records,
// buckets, advance, orphans — is the grace-period engine of
// tamp/reclaim/grace_period.hpp; EBR's part is *when* a thread announces:
// a pin is an announce, an unpin goes idle.
//
// Trade-off vs hazard pointers, measured by `bench_reclaim`: EBR reads
// are nearly free (one pin store per *operation*, not per node), but a
// single stalled reader blocks reclamation globally; HP bounds garbage
// per thread but publishes per pointer.  With the asymmetric-fence
// protocol (tamp/reclaim/asym_fence.hpp) both pay only a release store
// plus compiler barrier on the read side — the collector's membarrier
// carries the store-load ordering — and retirement is thread-local.

#pragma once

#include "tamp/obs/events.hpp"
#include "tamp/reclaim/grace_period.hpp"

namespace tamp {

struct EbrPolicy {
    static constexpr const char* kName = "ebr";
    /// Threads start idle; only a pin makes one gate grace periods.
    static constexpr bool kRegistersOnline = false;
    static constexpr bool kTracesAdvance = true;
    using retired = obs::ev::epoch_retired;
    using freed = obs::ev::epoch_freed;
    using collects = obs::ev::epoch_collects;
    using shared = obs::ev::epoch_shared;
    using advances = obs::ev::epoch_advances;
    using collect_ns = obs::ev::epoch_collect_ns;
    using announces = void;  // a pin per operation: not worth a counter
};

using EpochDomain = GracePeriodDomain<EbrPolicy>;

/// RAII pin.  Operations on EBR-managed structures run inside one:
///
///     EpochGuard g;                 // pins
///     ... traverse freely ...
///                                   // ~EpochGuard unpins
///
/// Guards nest (a per-thread counter); only the outermost pins/unpins,
/// through the record the guard looked up once.
class EpochGuard {
  public:
    EpochGuard() : rec_(&EpochDomain::record()) {
        if (rec_->nesting++ == 0) EpochDomain::global().announce(*rec_);
    }
    ~EpochGuard() {
        if (--rec_->nesting == 0) EpochDomain::idle(*rec_);
    }
    EpochGuard(const EpochGuard&) = delete;
    EpochGuard& operator=(const EpochGuard&) = delete;

  private:
    EpochDomain::Record* rec_;
};

}  // namespace tamp
