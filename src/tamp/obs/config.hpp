// tamp/obs/config.hpp
//
// Compile-time switch for the observability layer.
//
// The whole of tamp::obs is gated on the TAMP_STATS preprocessor macro
// (cmake -DTAMP_STATS=ON, or the `stats` preset): with it off — the
// default — every counter increment and trace record compiles to an empty
// inline function, so release hot paths carry zero instrumentation cost
// (verified by the before/after `bench_locks` numbers in EXPERIMENTS.md).
//
// ODR discipline: a test TU may flip TAMP_STATS locally (tests/obs_test.cpp
// forces it on, tests/obs_off_test.cpp forces it off) while the rest of the
// program was built with the opposite setting.  To keep that well-formed,
// everything whose *definition* depends on the macro is a template —
// counter<Tag>/max_counter<Tag>, histogram<Tag>, scoped_timer<Tag>,
// trace<Backend>() — so differently configured TUs instantiate *distinct*
// entities instead of redefining one.  The code every TU shares (the
// per-thread store, the one metric registry of counters and histograms,
// snapshot(), hist_snapshot(), the clock, the trace rings and their dump)
// must stay macro-independent.  A TU that flips the macro must only
// include tamp/obs headers, never the instrumented library headers.

#pragma once

#include <type_traits>

#if !defined(TAMP_STATS)
#define TAMP_STATS 0
#endif

namespace tamp::obs {

/// Tag-dispatch types naming the two build modes.  counter<Tag>::backend
/// (and friends) alias one of these, which is what the TAMP_STATS=OFF
/// compile test static_asserts on.
struct stats_enabled_backend {};
struct stats_disabled_backend {};

/// This TU's view of the switch.
inline constexpr bool kStatsEnabled = (TAMP_STATS != 0);

/// The backend this TU instantiates.
using stats_backend = std::conditional_t<kStatsEnabled, stats_enabled_backend,
                                         stats_disabled_backend>;

}  // namespace tamp::obs
