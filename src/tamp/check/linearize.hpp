// tamp/check/linearize.hpp
//
// Offline linearizability verification in the style of Wing & Gong
// (JPDC 1993), with the configuration memoization of Lowe (2017): search
// for a total order of the recorded operations that (a) respects real
// time — an operation may be chosen only while it is *minimal*, i.e. no
// unchosen operation's response precedes its invocation — and (b) is
// legal for the sequential spec, each operation's recorded result
// matching what the spec state would have returned.
//
// The search is exponential in the worst case, but two things keep it
// fast on real histories: only operations that actually overlapped can
// permute (the frontier is at most the thread count), and configurations
// — (set of linearized ops, spec state) pairs — repeat massively and are
// pruned by a seen-set.  The seen-set stores 64-bit configuration hashes
// rather than full configurations; a collision could only cause a false
// *non-linearizable* verdict, with probability ~n²/2⁶⁴ — negligible at
// test sizes, and the checker reports it as a counterexample a human
// would then inspect.
//
// Failure reports: the checker remembers the deepest legal prefix it
// ever built and the frontier operations that all failed to extend it —
// for a real bug (duplicated pop, lost enqueue) the stuck frontier names
// the offending operations directly.  See README "Correctness tooling"
// for how to read one.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "tamp/check/recorder.hpp"
#include "tamp/core/bits.hpp"

namespace tamp::check {

/// Which precedence relation the witness order must respect.
///
/// kRealTime is classic linearizability (Herlihy & Wing): if op A's
/// response precedes op B's invocation, A must linearize before B.
/// kProgramOrder keeps only same-thread order — i.e. sequential
/// consistency of the completed history.  The weaker mode exists for the
/// TAMP_SIM model checker: its memory model (like C++11's) is not
/// multi-copy-atomic, so an acquire/release structure can legally give a
/// reader a slightly stale view, which violates real-time linearizability
/// without being a bug on any C++11 implementation.  See
/// tamp/sim/explore.hpp.
enum class Precedence {
    kRealTime,
    kProgramOrder,
};

struct LinearizeOptions {
    /// Cap on distinct configurations explored before the search gives
    /// up; `CheckResult::complete` is false when the cap is hit.
    std::size_t max_configurations = 1u << 22;  // ~4M
    Precedence precedence = Precedence::kRealTime;
};

struct CheckResult {
    /// A witness order was found (only meaningful when complete).
    bool linearizable = false;
    /// False when the search aborted on the configuration budget.
    bool complete = true;
    /// Distinct configurations visited.
    std::size_t explored = 0;
    /// When linearizable: indices into the checked history, in witness
    /// order.  When not: the deepest legal prefix reached.
    std::vector<std::size_t> order;
    /// When not linearizable: the minimal ops none of which could extend
    /// the deepest prefix (the "stuck frontier").
    std::vector<std::size_t> frontier;

    bool ok() const { return linearizable && complete; }

    /// Human-readable verdict for test logs; `history` must be the same
    /// vector the check ran on.
    std::string explain(const std::vector<Operation>& history) const {
        if (ok()) {
            return "linearizable (" + std::to_string(explored) +
                   " configurations)";
        }
        std::string s = complete
                            ? "NOT linearizable"
                            : "inconclusive: configuration budget exhausted";
        s += " (" + std::to_string(explored) + " configurations)\n";
        s += "deepest legal prefix (" + std::to_string(order.size()) + "/" +
             std::to_string(history.size()) + " ops):\n";
        const std::size_t tail = order.size() > 12 ? order.size() - 12 : 0;
        if (tail > 0) s += "  ... " + std::to_string(tail) + " earlier\n";
        for (std::size_t i = tail; i < order.size(); ++i) {
            s += "  " + format_operation(history[order[i]]) + "\n";
        }
        s += "stuck frontier (every real-time-minimal candidate is illegal "
             "here):\n";
        for (std::size_t idx : frontier) {
            s += "  " + format_operation(history[idx]) + "\n";
        }
        return s;
    }
};

/// Search for a linearization of `history` against `Spec`, starting from
/// `initial` state.  The history must contain only completed operations
/// (HistoryRecorder guarantees this).
template <typename Spec>
CheckResult linearize(const std::vector<Operation>& history,
                      typename Spec::State initial = {},
                      LinearizeOptions opts = {}) {
    using State = typename Spec::State;
    const std::size_t n = history.size();

    CheckResult result;
    if (n == 0) {
        result.linearizable = true;
        return result;
    }

    // Process ops in invocation order; `order_by_invoke[k]` is the
    // history index of the k-th earliest invocation.
    std::vector<std::size_t> by_invoke(n);
    for (std::size_t i = 0; i < n; ++i) by_invoke[i] = i;
    std::sort(by_invoke.begin(), by_invoke.end(),
              [&](std::size_t a, std::size_t b) {
                  return history[a].invoke < history[b].invoke;
              });

    // DFS over configurations.  `taken` marks linearized ops; a branch
    // copies the spec state (states are small flat values by design).
    std::vector<bool> taken(n, false);
    std::vector<std::size_t> chosen;  // current prefix, history indices
    chosen.reserve(n);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(1024);

    std::size_t best_depth = 0;
    std::vector<std::size_t> best_prefix;
    std::vector<std::size_t> best_frontier;
    bool budget_exhausted = false;

    // Zobrist hashing of the taken-set: XOR of a per-op key, maintained
    // incrementally as ops are taken/untaken (order-independent, O(1)).
    std::vector<std::uint64_t> zobrist(n);
    for (std::size_t i = 0; i < n; ++i) zobrist[i] = tamp::detail::mix64(i);
    std::uint64_t taken_hash = 0;

    // Recursive lambda via explicit self parameter.
    auto dfs = [&](auto&& self, const State& state,
                   std::size_t remaining) -> bool {
        if (remaining == 0) return true;
        if (!seen.insert(detail::hash_mix(taken_hash, Spec::hash(state)))
                 .second) {
            return false;
        }
        if (seen.size() > opts.max_configurations) {
            budget_exhausted = true;
            return false;
        }

        // Minimal response among unchosen ops bounds the candidates: an
        // op whose invocation is later than some unchosen op's response
        // must come after it, so it is not minimal.  (kRealTime only.)
        std::uint64_t min_response = ~std::uint64_t{0};
        if (opts.precedence == Precedence::kRealTime) {
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t idx = by_invoke[k];
                if (!taken[idx]) {
                    min_response =
                        std::min(min_response, history[idx].response);
                }
            }
        }

        // Under kProgramOrder the candidates are instead the earliest
        // unchosen op of each thread (invoke order within a thread is
        // program order — HistoryRecorder stamps monotonically).
        std::uint64_t offered_threads = 0;  // bitset; thread ids are small

        std::vector<std::size_t> frontier;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t idx = by_invoke[k];
            if (taken[idx]) continue;
            const Operation& op = history[idx];
            if (opts.precedence == Precedence::kRealTime) {
                if (op.invoke > min_response) break;  // by_invoke is sorted
            } else {
                const std::uint64_t bit = 1ull << (op.thread & 63u);
                if (offered_threads & bit) continue;  // not thread-minimal
                offered_threads |= bit;
            }
            frontier.push_back(idx);
            State next = state;
            if (!Spec::apply(next, op)) continue;
            taken[idx] = true;
            taken_hash ^= zobrist[idx];
            chosen.push_back(idx);
            if (self(self, next, remaining - 1)) return true;
            if (budget_exhausted) return false;
            chosen.pop_back();
            taken_hash ^= zobrist[idx];
            taken[idx] = false;
        }
        // Dead end: remember the deepest one for the report.
        if (chosen.size() >= best_depth) {
            best_depth = chosen.size();
            best_prefix = chosen;
            best_frontier = std::move(frontier);
        }
        return false;
    };

    result.linearizable = dfs(dfs, initial, n);
    result.complete = !budget_exhausted;
    result.explored = seen.size();
    if (result.linearizable) {
        result.order = chosen;
    } else {
        result.order = std::move(best_prefix);
        result.frontier = std::move(best_frontier);
    }
    return result;
}

}  // namespace tamp::check
