// tamp/core/per_thread.hpp
//
// The per-thread store: one cell per dense thread id (thread_registry.hpp),
// perfbook's per-thread variable (ch. 5) keyed by the book's ThreadID.  It
// holds every tamp::obs counter, histogram and trace ring, every
// reclamation domain's thread records, each split-ordered table's
// element counts and KV map's scan gates, and each queue lock's
// ThreadLocal node or ticket.
//
//  * a cell is allocated by its id's first local() and freed with the
//    store.  Only the id's current owner allocates it or writes its
//    owner-only fields;
//  * a recycled id continues the previous owner's cell.  The registry's
//    mutex orders the two owners, so owner-only fields need no atomics;
//  * readers sweep the cells without a lock, up to the registry's
//    high-water mark, which no id handed out reaches.  The mark and the
//    cell pointers are stored and loaded seq_cst: the reclamation headers
//    say why their sweeps need that.

#pragma once

#include <atomic>
#include <cstddef>

#include "tamp/core/thread_registry.hpp"

namespace tamp {

template <typename Cell>
class per_thread {
  public:
    /// Frees every cell.  No thread may use the store any more.
    ~per_thread() {
        for (auto& slot : cells_) delete slot.load(std::memory_order_relaxed);
    }

    /// The calling thread's cell, value-initialized by the id's first call.
    Cell& local() {
        std::atomic<Cell*>& slot = cells_[thread_id()];
        Cell* c = slot.load(std::memory_order_acquire);
        if (c == nullptr) {
            c = new Cell();
            slot.store(c, std::memory_order_seq_cst);
        }
        return *c;
    }

    /// Id `tid`'s cell, or nullptr when that id never called local().
    Cell* find(std::size_t tid) const noexcept {
        return cells_[tid].load(std::memory_order_seq_cst);
    }

    /// f(tid, cell) for every allocated cell, in id order.
    template <typename F>
    void for_each(F&& f) const {
        const std::size_t bound = thread_id_high_water_mark();
        for (std::size_t t = 0; t < bound; ++t) {
            if (Cell* c = find(t)) f(t, *c);
        }
    }

  private:
    std::atomic<Cell*> cells_[kMaxThreads] = {};
};

}  // namespace tamp
