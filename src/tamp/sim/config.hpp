// tamp/sim/config.hpp
//
// Compile-time switch for the model-checking layer.
//
// The whole of tamp::sim is gated on the TAMP_SIM preprocessor macro
// (cmake -DTAMP_SIM=ON, or the `sim` preset): with it off — the default —
// `tamp::atomic<T>` is a plain alias of `std::atomic<T>` (identical type,
// layout, and codegen; tests/sim_facade_test.cpp static_asserts the
// identity), and the sim:: entry points collapse to trivial shims.  With
// it on, every load/store/RMW on a `tamp::atomic` becomes a schedule point
// of the cooperative scheduler in tamp/sim/scheduler.hpp.
//
// ODR discipline (stricter than tamp/obs/config.hpp): flipping TAMP_SIM
// changes the *type* of `tamp::atomic<T>`, not just behavior, so a per-TU
// override is only safe in a TU that (a) forces TAMP_SIM=0 inside a
// TAMP_SIM=ON build — the OFF facade is a pure alias and emits no entities
// — and (b) never passes tamp types across its TU boundary.
// tests/sim_facade_test.cpp is the canonical such TU.  Forcing TAMP_SIM=1
// inside an OFF build is never safe: the ON facade has different layout
// than the library the rest of the program was compiled against.  The
// supported way to enable the checker is the whole-build `sim` preset
// (TAMP_SIM is a PUBLIC compile definition of tamp::tamp).

#pragma once

#include <type_traits>

#if !defined(TAMP_SIM)
#define TAMP_SIM 0
#endif

namespace tamp::sim {

/// Tag-dispatch types naming the two build modes; sim_backend aliases one
/// of them, which is what the TAMP_SIM=OFF compile test static_asserts on.
struct sim_enabled_backend {};
struct sim_disabled_backend {};

/// This TU's view of the switch.
inline constexpr bool kSimEnabled = (TAMP_SIM != 0);

/// The backend this TU instantiates.
using sim_backend =
    std::conditional_t<kSimEnabled, sim_enabled_backend, sim_disabled_backend>;

/// Hard limits of the checker (only meaningful when kSimEnabled).
///
/// kMaxSimThreads bounds the worker pool; explored algorithms at model-
/// checking scale use 2–4 threads, and the DFS frontier grows factorially
/// with the count, so 8 is already generous.  kHistoryDepth is how many
/// stale values per atomic location stay eligible for relaxed loads to
/// return; Relacy uses a similar small ring.
inline constexpr int kMaxSimThreads = 8;
inline constexpr int kHistoryDepth = 4;

/// Stale-value load choices per thread per execution: past this budget a
/// thread's loads return the newest store only.
inline constexpr int kStaleBudget = 4;

/// Fair-demonic liveness probe (Strategy::kFairDemonic): no enabled thread
/// waits more than kFairnessWindow schedule points before it is forced to
/// run (the fairness promise), and a starvation verdict needs rivals to
/// have completed kStarvationRivalOps operations while the victim sat in
/// one (evidence the system moves without the victim moving).
inline constexpr int kFairnessWindow = 12;
inline constexpr int kStarvationRivalOps = 6;

}  // namespace tamp::sim
