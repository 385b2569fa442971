#include "tamp/core/thread_registry.hpp"

#include <pthread.h>

#include <atomic>
#include <bitset>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

namespace tamp {
namespace {

using Hook = std::pair<void (*)(void*, std::size_t), void*>;  // fn, ctx

void run_exit_hooks(void* slot);

struct Registry {
    std::mutex mu;
    std::bitset<kMaxThreads> used;           // ids of live threads
    std::atomic<std::size_t> high_water{0};  // written under mu
    std::vector<Hook> hooks;  // every kReclaim hook before every kPool one
    std::size_t exiting = 0;  // threads running the hooks
    std::condition_variable none_exiting;
    pthread_key_t key{};  // its destructor runs the hooks

    Registry() {
        if (pthread_key_create(&key, &run_exit_hooks) != 0) std::abort();
    }

    std::size_t acquire() {  // the lowest free id
        std::lock_guard<std::mutex> guard(mu);
        std::size_t id = 0;
        while (id < kMaxThreads && used[id]) ++id;
        if (id == kMaxThreads) {
            std::fprintf(stderr,
                         "tamp: more than %zu simultaneously registered "
                         "threads\n",
                         kMaxThreads);
            std::abort();
        }
        used[id] = true;
        if (id >= high_water.load(std::memory_order_relaxed)) {
            high_water.store(id + 1, std::memory_order_seq_cst);
        }
        // A key destructor runs only on a non-null value: store id + 1.
        pthread_setspecific(key, reinterpret_cast<void*>(id + 1));
        return id;
    }
};

// Leaked intentionally: threads may exit after static destruction would
// have torn a non-leaked registry down.
Registry& registry() {
    static Registry* r = new Registry();
    return *r;
}

void run_exit_hooks(void* slot) {
    const std::size_t id = reinterpret_cast<std::uintptr_t>(slot) - 1;
    Registry& r = registry();
    std::vector<Hook> hooks;
    {
        std::lock_guard<std::mutex> guard(r.mu);
        hooks = r.hooks;
        ++r.exiting;
    }
    for (const auto& [fn, ctx] : hooks) fn(ctx, id);
    std::lock_guard<std::mutex> guard(r.mu);
    r.used[id] = false;
    if (--r.exiting == 0) r.none_exiting.notify_all();
}

}  // namespace

namespace detail {
std::size_t register_current_thread() { return registry().acquire(); }
}  // namespace detail

std::size_t thread_id_high_water_mark() {
    return registry().high_water.load(std::memory_order_seq_cst);
}

void add_thread_exit_hook(ExitOrder order, void (*fn)(void*, std::size_t),
                          void* ctx) {
    Registry& r = registry();
    std::lock_guard<std::mutex> guard(r.mu);
    r.hooks.insert(order == ExitOrder::kPool ? r.hooks.end() : r.hooks.begin(),
                   Hook{fn, ctx});
}

void remove_thread_exit_hook(void (*fn)(void*, std::size_t), void* ctx) {
    Registry& r = registry();
    std::unique_lock<std::mutex> lock(r.mu);
    std::erase(r.hooks, Hook{fn, ctx});
    // An exit that copied the list before the erase may still run it.
    r.none_exiting.wait(lock, [&r] { return r.exiting == 0; });
}

}  // namespace tamp
