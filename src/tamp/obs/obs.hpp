// tamp/obs/obs.hpp — umbrella for the observability layer.
//
// Four tiers (see README "Observability") and their vocabulary:
//   counter.hpp    per-thread sharded statistical counters (sum/high-water),
//                  plus the metric registry all tiers use
//   histogram.hpp  per-thread HDR-style latency histograms + percentiles
//   timer.hpp      the clock, and calibrated timers feeding histograms
//   trace.hpp      per-thread event rings + Chrome trace_event exporter
//   events.hpp     the telemetry vocabulary (spin.*, hp.*, stm.*, *_ns, …)
//
// Everything is compiled out unless TAMP_STATS is on (config.hpp).

#pragma once

#include "tamp/obs/config.hpp"     // IWYU pragma: export
#include "tamp/obs/counter.hpp"    // IWYU pragma: export
#include "tamp/obs/events.hpp"     // IWYU pragma: export
#include "tamp/obs/histogram.hpp"  // IWYU pragma: export
#include "tamp/obs/timer.hpp"      // IWYU pragma: export
#include "tamp/obs/trace.hpp"      // IWYU pragma: export
