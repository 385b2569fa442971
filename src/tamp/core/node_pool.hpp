// tamp/core/node_pool.hpp
//
// NodePool — a fixed-size block pool for the nodes of lock-free
// structures.  The book's algorithms lean on a garbage collector that hands
// out and recycles small nodes cheaply; this is tamp's stand-in for that
// half of the collector (the other half, deciding *when* a node may be
// recycled, is the reclamation domain's).  The split-ordered table
// (tamp/hash/split_ordered.hpp) takes its data nodes from it through a
// class-level operator new/delete; its sentinels live in its bucket
// directory.
//
// Shape (perfbook's per-CPU resource-allocator cache, over Bonwick's
// magazines):
//
//  * a block is kBlock bytes, a power of two, aligned to its size: no
//    block straddles a cache line.  NodePoolFor<T> rounds sizeof(T) up;
//  * each thread holds two magazines of block pointers.  allocate() pops
//    the loaded one and deallocate() pushes onto it, so a thread's frees
//    are its next allocations.  The other magazine is always full or
//    empty: a thread swaps the two when the loaded one runs empty (full)
//    and the other is full (empty), and only otherwise takes the depot's
//    lock to refill (flush) a whole magazine;
//  * the depot is one mutex over 64 KiB slabs, each a header holding a
//    free bitmap followed by its blocks.  A refill takes the free blocks
//    of the lowest-addressed slab first, in ascending order, so a thread
//    that allocates a run of nodes gets them adjacent whatever order their
//    predecessors were freed in (a table's destructor frees in hash
//    order);
//  * slabs are carved, in ascending address order, from 2 MiB runs that
//    come from mmap, mapped at twice their size and trimmed to their
//    alignment.  Each run is advised MADV_HUGEPAGE once, so a kernel with
//    transparent huge pages may back it with one huge page, which gives
//    a lookup's chain of dependent node loads TLB reach (on a kernel
//    without them the advice fails and 4 KiB pages serve).  A run on a
//    huge page is resident once touched, so each size class may hold a
//    partly used run's worth of untouched slabs.  Runs are never
//    unmapped: memory freed to the pool is kept for reuse, not returned
//    to the OS;
//  * a free block holds no pool metadata (magazines and bitmaps live
//    elsewhere), so under ASan the whole block is poisoned from its free
//    to its next allocation and a read of a freed node is reported.
//    LeakSanitizer does not scan the slabs: in_use() is the leak check
//    for pooled nodes, and a node must not own heap memory that only it
//    points to;
//  * a thread's magazines go back to the depot from an exit hook of the
//    thread registry (core/thread_registry.hpp), which runs after the
//    reclamation domains' hooks have freed the thread's aged nodes into
//    them, and after every thread_local destructor of the thread.
//
// The pool knows nothing about the structure's threads: a block must be
// unreachable when it is freed, which is the reclamation domain's job.
// Recycling a node before its grace period is the ABA-through-the-pool
// bug that tests/sim_bugs_test.cpp's Bug 16 seeds.

#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <set>

#include "tamp/check/asan_annotate.hpp"
#include "tamp/core/thread_registry.hpp"

namespace tamp {

template <std::size_t kBlock>
class NodePool {
    static_assert(std::has_single_bit(kBlock) && kBlock >= 16 &&
                  kBlock <= 4096);

  public:
    /// Bytes per slab, and its alignment.
    static constexpr std::size_t kSlabBytes = std::size_t{64} << 10;
    /// Bytes per run the depot maps, and its alignment: a huge page.
    static constexpr std::size_t kRunBytes = std::size_t{2} << 20;
    /// Block pointers per magazine: one grace-period batch (EBR and QSBR
    /// attempt a grace period per 1024 retires), so a thread's magazines
    /// absorb the frees of an aged batch and its next inserts take them
    /// back without the depot's lock.  At 64 the KV churn workload
    /// flushed and refilled every few dozen operations under the lock,
    /// and its p99 rose above the system allocator's (EXPERIMENTS.md A6).
    static constexpr std::uint32_t kMagazine = 1024;

    static void* allocate() {
        Cache& c = cache();
        Magazine& m = c.mag[c.loaded];
        if (m.n == 0) [[unlikely]] {
            return allocate_slow(c);
        }
        void* p = m.blocks[--m.n];
        if (m.n != 0) __builtin_prefetch(m.blocks[m.n - 1], 1);
        TAMP_ASAN_UNPOISON(p, kBlock);
        return p;
    }

    static void deallocate(void* p) {
        TAMP_ASAN_POISON(p, kBlock);
        Cache& c = cache();
        Magazine& m = c.mag[c.loaded];
        if (m.n == c.capacity) [[unlikely]] {
            deallocate_slow(c, p);
            return;
        }
        m.blocks[m.n++] = p;
    }

    /// Blocks allocated and not yet freed.  Blocks in other live threads'
    /// magazines count as allocated, so the figure is exact once every
    /// other thread that used the pool has exited (tests).
    static std::size_t in_use() {
        const Cache& c = cache();
        return depot().outside() - c.mag[0].n - c.mag[1].n;
    }

  private:
    struct Magazine {
        std::uint32_t n;
        void* blocks[kMagazine];
    };

    /// A thread's magazines.  Constant-initialized and trivially
    /// destructible: an access is a plain TLS load (no init guard), and
    /// the storage outlives every exit hook of its thread.
    struct Cache {
        Magazine mag[2];
        std::uint32_t loaded;    // mag[loaded] serves allocate/deallocate
        std::uint32_t capacity;  // kMagazine once attached, else 0: a
                                 // fresh thread's first free goes slow
    };

    static Cache& cache() {
        thread_local constinit Cache c{};
        return c;
    }

    /// A thread's first slow-path call: its exit returns the magazines.
    static void attach(Cache& c) {
        [[maybe_unused]] static const bool hooked = [] {
            add_thread_exit_hook(ExitOrder::kPool, [](void*, std::size_t) {
                for (Magazine& m : cache().mag) {
                    depot().flush(m.blocks, m.n);
                    m.n = 0;
                }
            }, nullptr);
            return true;
        }();
        (void)thread_id();
        c.capacity = kMagazine;
    }

    [[gnu::noinline]] static void* allocate_slow(Cache& c) {
        if (c.capacity == 0) attach(c);
        if (c.mag[c.loaded ^ 1].n != 0) {
            c.loaded ^= 1;  // the other magazine is full
        } else {
            depot().refill(c.mag[c.loaded].blocks, kMagazine);
            c.mag[c.loaded].n = kMagazine;
        }
        return allocate();
    }

    [[gnu::noinline]] static void deallocate_slow(Cache& c, void* p) {
        if (c.capacity == 0) {
            attach(c);
        } else {
            // The loaded magazine is full: load the other, emptying it
            // into the depot first if it is full too.
            Magazine& other = c.mag[c.loaded ^ 1];
            depot().flush(other.blocks, other.n);
            other.n = 0;
            c.loaded ^= 1;
        }
        Magazine& m = c.mag[c.loaded];
        m.blocks[m.n++] = p;
    }

    static constexpr std::size_t kSlabBlocks = kSlabBytes / kBlock;
    static constexpr std::size_t kWords = (kSlabBlocks + 63) / 64;

    /// A slab's first blocks.  Bit i of `free_bits`: block i is in the
    /// depot.
    struct Slab {
        std::uint64_t free_bits[kWords];
        std::uint32_t free;    // bits set
        std::uint32_t lowest;  // every word below this one is zero
    };
    static constexpr std::size_t kHeaderBlocks =
        (sizeof(Slab) + kBlock - 1) / kBlock;

    /// The shared stock of free blocks.
    class Depot {
      public:
        /// Take the n lowest-addressed free blocks into out[n-1], ...,
        /// out[0]: a magazine pops from its top, so its owner allocates
        /// them in ascending order.
        void refill(void** out, std::size_t n) {
            std::lock_guard<std::mutex> lock(mu_);
            while (n > 0) {
                Slab* s = stocked_.empty() ? map_slab() : *stocked_.begin();
                while (n > 0 && s->free > 0) {
                    std::uint64_t& word = s->free_bits[s->lowest];
                    if (word == 0) {
                        ++s->lowest;
                        continue;
                    }
                    const std::size_t i = s->lowest * std::size_t{64} +
                                          std::countr_zero(word);
                    word &= word - 1;
                    --s->free;
                    --free_;
                    out[--n] = reinterpret_cast<char*>(s) + i * kBlock;
                }
                if (s->free == 0) stocked_.erase(stocked_.begin());
            }
        }

        void flush(void* const* blocks, std::size_t n) {
            if (n == 0) return;
            std::lock_guard<std::mutex> lock(mu_);
            for (std::size_t k = 0; k < n; ++k) {
                const auto a = reinterpret_cast<std::uintptr_t>(blocks[k]);
                auto* s = reinterpret_cast<Slab*>(a & ~(kSlabBytes - 1));
                const std::size_t i = (a & (kSlabBytes - 1)) / kBlock;
                const std::uint64_t bit = std::uint64_t{1} << (i % 64);
                assert((s->free_bits[i / 64] & bit) == 0 &&
                       "block freed twice");
                s->free_bits[i / 64] |= bit;
                s->lowest = std::min(s->lowest,
                                     static_cast<std::uint32_t>(i / 64));
                if (s->free++ == 0) stocked_.insert(s);
            }
            free_ += n;
        }

        /// Blocks outside the depot: in magazines or allocated.
        std::size_t outside() const {
            std::lock_guard<std::mutex> lock(mu_);
            return blocks_ - free_;
        }

      private:
        /// The current run's next slab, mapping a new run when it is spent.
        Slab* map_slab() {
            if (next_ == end_) {
                void* raw = mmap(nullptr, 2 * kRunBytes, PROT_READ | PROT_WRITE,
                                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
                if (raw == MAP_FAILED) throw std::bad_alloc();
                const auto lo = reinterpret_cast<std::uintptr_t>(raw);
                next_ = (lo + kRunBytes - 1) & ~(kRunBytes - 1);
                end_ = next_ + kRunBytes;
                if (next_ != lo) munmap(raw, next_ - lo);
                munmap(reinterpret_cast<void*>(end_), lo + kRunBytes - next_);
                // Best effort: without THP the run keeps 4 KiB pages.
                madvise(reinterpret_cast<void*>(next_), kRunBytes,
                        MADV_HUGEPAGE);
            }
            const std::uintptr_t at = next_;
            next_ += kSlabBytes;
            auto* s = ::new (reinterpret_cast<void*>(at)) Slab{};
            for (std::size_t i = kHeaderBlocks; i < kSlabBlocks; ++i) {
                s->free_bits[i / 64] |= std::uint64_t{1} << (i % 64);
            }
            s->free = kSlabBlocks - kHeaderBlocks;
            s->lowest = kHeaderBlocks / 64;
            TAMP_ASAN_POISON(reinterpret_cast<char*>(at) +
                                 kHeaderBlocks * kBlock,
                             kSlabBytes - kHeaderBlocks * kBlock);
            blocks_ += s->free;
            free_ += s->free;
            stocked_.insert(s);
            return s;
        }

        mutable std::mutex mu_;
        std::set<Slab*> stocked_;  // slabs with a free block, by address
        std::uintptr_t next_ = 0;  // the current run's next slab
        std::uintptr_t end_ = 0;   // and the run's end
        std::size_t blocks_ = 0;   // in all slabs, headers excluded
        std::size_t free_ = 0;     // in the depot
    };

    static Depot& depot() {
        // Leaked: threads may exit, and free, during static destruction.
        static auto* d = new Depot();
        return *d;
    }
};

/// The pool whose blocks fit a T: sizeof(T) rounded up to a power of two,
/// at least 16 bytes.
template <typename T>
using NodePoolFor =
    NodePool<std::bit_ceil(std::max(sizeof(T), std::size_t{16}))>;

}  // namespace tamp
