// tamp/registers/snapshot.hpp
//
// Atomic snapshots (§4.3): an array of single-writer registers supporting
// a wait-free `scan` that returns an instantaneous view of all of them.
//
// Two implementations:
//
//  * SimpleSnapshot (Fig. 4.18) — obstruction-free: `collect` twice; a
//    "clean double collect" (no label changed) is a linearizable view.
//    A scanner running against a steady stream of updates may never
//    terminate, which the tests demonstrate is *possible* but rarely hit.
//
//  * WaitFreeSnapshot (Fig. 4.21) — each update embeds a snapshot taken by
//    its writer.  A scanner that sees some register move *twice* knows
//    that register's writer performed a complete update (including its
//    embedded scan) inside the scanner's interval, so it can return the
//    embedded snapshot.  Every scan terminates within two moves per
//    register.
//
// Register cells hold (label, value, embedded-snapshot) — far too wide for
// a machine word — so each cell is a tamp::atomic pointer to an immutable
// record, in every build: the model checker (including the progress
// probes of tamp/sim/progress.hpp) sees every cell access as a schedule
// point, and release builds run the same lock-free code.  An update
// retires the record it replaced through EBR (the substitution for the
// book's Java heap, see DESIGN.md), and read() and scan() run under an
// EBR guard, so a scanner never reads a freed record.  A scan holds every
// cell's record at once, more than a hazard-pointer guard's three slots.
// EBR's own state is std::atomic, which the model checker does not
// schedule, so the sim explores exactly the cells' accesses.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/sim/atomic.hpp"
#include "tamp/sim/hooks.hpp"

namespace tamp {

/// Obstruction-free snapshot via clean double collect (Fig. 4.18).
template <typename T>
class SimpleSnapshot {
    struct Record {
        std::uint64_t label;
        T value;
    };

  public:
    explicit SimpleSnapshot(std::size_t n, T init = T{}) : cells_(n) {
        for (auto& c : cells_) c.store(new Record{0, init});
    }

    ~SimpleSnapshot() {
        for (auto& c : cells_) delete c.load();
    }

    SimpleSnapshot(const SimpleSnapshot&) = delete;
    SimpleSnapshot& operator=(const SimpleSnapshot&) = delete;

    /// Single writer per index: bump my label and publish the new value.
    /// Only `me` replaces its record, so reading it needs no guard.
    void update(std::size_t me, T value) {
        assert(me < cells_.size());
        sim::op_scope op("SimpleSnapshot::update");
        const auto old = cells_[me].load();
        cells_[me].store(new Record{old->label + 1, value});
        reclaim::ebr::retire(const_cast<Record*>(old));
    }

    /// Wait-free read of one component.
    T read(std::size_t i) const {
        reclaim::ebr::guard guard;
        return cells_[i].load()->value;
    }

    /// Obstruction-free scan: retry until two collects agree everywhere.
    std::vector<T> scan() const {
        sim::op_scope op("SimpleSnapshot::scan");
        reclaim::ebr::guard guard;
        auto old = collect();
        SpinWait w;
        while (true) {
            auto fresh = collect();
            bool clean = true;
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                if (old[i]->label != fresh[i]->label) {
                    clean = false;
                    break;
                }
            }
            if (clean) {
                std::vector<T> out;
                out.reserve(fresh.size());
                for (const auto& r : fresh) out.push_back(r->value);
                return out;
            }
            old = std::move(fresh);
            w.spin();
        }
    }

    std::size_t size() const { return cells_.size(); }

  private:
    std::vector<const Record*> collect() const {
        std::vector<const Record*> out;
        out.reserve(cells_.size());
        for (const auto& c : cells_) out.push_back(c.load());
        return out;
    }

    std::vector<tamp::atomic<const Record*>> cells_;
};

/// Wait-free snapshot with embedded scans (Fig. 4.21).
template <typename T>
class WaitFreeSnapshot {
    struct Record {
        std::uint64_t label;
        T value;
        std::vector<T> snap;  // the writer's view at update time
    };

  public:
    explicit WaitFreeSnapshot(std::size_t n, T init = T{}) : cells_(n) {
        const std::vector<T> zero(n, init);
        for (auto& c : cells_) c.store(new Record{0, init, zero});
    }

    ~WaitFreeSnapshot() {
        for (auto& c : cells_) delete c.load();
    }

    WaitFreeSnapshot(const WaitFreeSnapshot&) = delete;
    WaitFreeSnapshot& operator=(const WaitFreeSnapshot&) = delete;

    /// Update = scan, then publish (label+1, value, that scan).  The
    /// embedded scan is what makes concurrent scanners wait-free.  Only
    /// `me` replaces its record, so reading it needs no guard.
    void update(std::size_t me, T value) {
        assert(me < cells_.size());
        sim::op_scope op("WaitFreeSnapshot::update");
        std::vector<T> snap = scan();
        const auto old = cells_[me].load();
        cells_[me].store(new Record{old->label + 1, value, std::move(snap)});
        reclaim::ebr::retire(const_cast<Record*>(old));
    }

    T read(std::size_t i) const {
        reclaim::ebr::guard guard;
        return cells_[i].load()->value;
    }

    /// Wait-free scan: bounded by two observed moves per register.
    std::vector<T> scan() const {
        sim::op_scope op("WaitFreeSnapshot::scan");
        reclaim::ebr::guard guard;
        const std::size_t n = cells_.size();
        std::vector<bool> moved(n, false);
        auto old = collect();
        while (true) {
            auto fresh = collect();
            bool clean = true;
            for (std::size_t j = 0; j < n; ++j) {
                if (old[j]->label != fresh[j]->label) {
                    if (moved[j]) {
                        // j moved twice: its second update's embedded scan
                        // happened entirely inside our interval — borrow it.
                        return fresh[j]->snap;
                    }
                    moved[j] = true;
                    clean = false;
                }
            }
            if (clean) {
                std::vector<T> out;
                out.reserve(n);
                for (const auto& r : fresh) out.push_back(r->value);
                return out;
            }
            old = std::move(fresh);
        }
    }

    std::size_t size() const { return cells_.size(); }

  private:
    std::vector<const Record*> collect() const {
        std::vector<const Record*> out;
        out.reserve(cells_.size());
        for (const auto& c : cells_) out.push_back(c.load());
        return out;
    }

    std::vector<tamp::atomic<const Record*>> cells_;
};

}  // namespace tamp
