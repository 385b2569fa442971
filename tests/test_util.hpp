// tests/test_util.hpp
//
// Shared helpers for the tamp test suite: spawn N threads that start as
// simultaneously as possible (so contention is real, not accidental
// serialization), plus small timing/assertion conveniences.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tamp_test {

/// Run `fn(i)` on `n` threads, i in [0, n).  All threads block on a start
/// gate so their bodies overlap; joins before returning.
inline void run_threads(std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
    std::atomic<bool> go{false};
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            fn(i);
        });
    }
    while (ready.load() != n) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
}

/// A critical-section exerciser shared by every lock test: `iters`
/// lock-protected increments of a deliberately racy (non-atomic) counter
/// per thread.  If mutual exclusion fails, increments are lost and the
/// final count is (with overwhelming probability over many runs) short.
template <typename LockFn, typename UnlockFn>
long hammer_counter(std::size_t n_threads, std::size_t iters, LockFn lock,
                    UnlockFn unlock) {
    long counter = 0;  // unprotected on purpose
    run_threads(n_threads, [&](std::size_t me) {
        for (std::size_t k = 0; k < iters; ++k) {
            lock(me);
            counter = counter + 1;  // read-modify-write race if lock broken
            unlock(me);
        }
    });
    return counter;
}

/// Number of hardware threads, clamped to [2, cap].
inline std::size_t test_threads(std::size_t cap = 8) {
    const std::size_t hw = std::thread::hardware_concurrency();
    const std::size_t n = hw == 0 ? 2 : hw;
    return n < 2 ? 2 : (n > cap ? cap : n);
}

/// A reclamation domain (tamp/reclaim/domain.hpp's concept) that frees
/// nothing until drain(): retired nodes stay parked while the threads
/// that might still traverse them run, so a test can free them at a
/// point of its choosing.  Its guard does nothing; it adds no shared
/// atomic steps, so it is also usable in sim explorations.
struct ParkingReclaim {
    static constexpr bool kProtects = false;
    struct guard {
        guard() {}  // user-provided, so a guard variable is not "unused"
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;
    };
    static void retire(void* p, void (*del)(void*)) {
        std::lock_guard<std::mutex> lk(mu());
        parked().emplace_back(p, del);
    }
    template <typename T>
    static void retire(T* p) {
        retire(p, [](void* q) { delete static_cast<T*>(q); });
    }
    static void quiescent() {}
    static std::size_t pending() {
        std::lock_guard<std::mutex> lk(mu());
        return parked().size();
    }
    static void drain() {
        std::lock_guard<std::mutex> lk(mu());
        for (const auto& [p, del] : parked()) del(p);
        parked().clear();
    }
    static const char* name() { return "parking"; }

  private:
    static std::mutex& mu() {
        static std::mutex m;
        return m;
    }
    static std::vector<std::pair<void*, void (*)(void*)>>& parked() {
        static std::vector<std::pair<void*, void (*)(void*)>> nodes;
        return nodes;
    }
};

}  // namespace tamp_test
