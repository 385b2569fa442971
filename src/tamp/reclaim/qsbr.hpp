// tamp/reclaim/qsbr.hpp
//
// Quiescent-state-based reclamation (QSBR) — the third rung of perfbook's
// deferred-reclamation ladder (McKenney; user-space RCU's fastest flavor).
//
// HP publishes per *pointer*, EBR per *operation*; QSBR publishes per
// *quiescence point* — an application-chosen moment at which the calling
// thread holds no references into any QSBR-managed structure.  Between
// quiescence points the read side is literally nothing: no store, no
// fence, not even a pin.  The cost moves to the contract: every
// registered thread must pass quiescence points regularly, and a thread
// that stops reporting (without going idle()) blocks reclamation
// process-wide — the same stalled-reader hazard as EBR, but wider,
// because it spans operations rather than one.
//
// The grace-period machinery is EBR's, shared in
// tamp/reclaim/grace_period.hpp; only the announcements differ.  A QSBR
// thread registers online, already announced at the current period (it
// holds no references yet), and stays announced: a quiescence point
// re-announces the period it observes, so the period advances once every
// online thread has reported quiescence at it.  Parked threads go idle()
// so they stop gating grace periods, and announce() again to resume.
//
// QsbrReadGuard is how structures templated on reclaim::domain consume
// this: construction/destruction are thread-local nesting arithmetic, and
// the outermost destructor announces once every kQuiescePeriod
// operations (a guard boundary is a valid quiescence point by
// construction — the caller's operation has completed).  That keeps
// QSBR-parameterized structures safe by default while preserving the
// amortized near-zero read side; `bench_reclaim` measures the gap.

#pragma once

#include <cstdint>

#include "tamp/obs/events.hpp"
#include "tamp/reclaim/grace_period.hpp"

namespace tamp {

struct QsbrPolicy {
    static constexpr const char* kName = "qsbr";
    /// Threads start announced; a quiescence point re-announces.
    static constexpr bool kRegistersOnline = true;
    static constexpr bool kTracesAdvance = false;
    using retired = obs::ev::qsbr_retired;
    using freed = obs::ev::qsbr_freed;
    using collects = obs::ev::qsbr_collects;
    using shared = obs::ev::qsbr_shared;
    using advances = obs::ev::qsbr_advances;
    using collect_ns = obs::ev::qsbr_collect_ns;
    using announces = obs::ev::qsbr_quiescences;
};

using QsbrDomain = GracePeriodDomain<QsbrPolicy>;

/// RAII read-side section for QSBR-parameterized structures.  The fast
/// path is thread-local arithmetic only — no store, no fence; the
/// outermost destructor announces a quiescence point every
/// kQuiescePeriod exits (legal there: the caller's operation is
/// complete, so the thread holds no references).  Guards nest; only the
/// outermost counts an exit.
class QsbrReadGuard {
  public:
    /// Outermost guard exits between automatic quiescence reports.
    static constexpr std::uint32_t kQuiescePeriod = 64;

    QsbrReadGuard() : rec_(&QsbrDomain::global().record()) {
        ++rec_->nesting;
    }

    ~QsbrReadGuard() {
        if (--rec_->nesting == 0 && ++rec_->exits >= kQuiescePeriod) {
            rec_->exits = 0;
            QsbrDomain::global().announce(*rec_);
        }
    }

    QsbrReadGuard(const QsbrReadGuard&) = delete;
    QsbrReadGuard& operator=(const QsbrReadGuard&) = delete;

  private:
    QsbrDomain::Record* rec_;
};

}  // namespace tamp
