// tamp/stm/ofree_stm.hpp
//
// The *obstruction-free* STM of §18.3 (DSTM-style "FreeObject"/Locator),
// the chapter's second design point beside the lock-based TL2 of stm.hpp.
//
// Every transactional object holds one atomic pointer to a Locator:
//
//     Locator { owner transaction, new version, old version }
//
// The object's logical value is decided by the owner's status: COMMITTED
// ⇒ new version, ABORTED/ACTIVE ⇒ old version.  A writer *opens* the
// object by installing (CAS) a fresh locator whose old version is the
// owner-status-resolved current one; committing is then a single CAS of
// the transaction's status word ACTIVE → COMMITTED — which atomically
// flips the meaning of every locator the transaction installed.  Nothing
// ever blocks: a writer that finds an ACTIVE owner in its way aborts it
// (CAS ACTIVE → ABORTED) — the aggressive contention-management policy —
// and o_atomically() backs off between attempts (the polite half).
//
// Reads are invisible: read = resolve the locator chain and remember
// (object, locator, box); every subsequent read re-validates the whole
// read set (the value a locator denotes changes when its owner commits,
// so both the locator pointer *and* the resolved box are checked) — this
// per-read validation is what gives user code a consistent view at every
// point, not just at commit (the "zombie transaction" problem).
//
// Reclamation: displaced locator shells and dead version boxes are
// epoch-retired with typed deleters; a transaction attempt is pinned for
// its whole lifetime, so its read-your-writes boxes stay valid even if a
// rival aborts it and displaces its locators.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "tamp/core/backoff.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/obs/events.hpp"
#include "tamp/obs/timer.hpp"
#include "tamp/obs/trace.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/stm/stm.hpp"  // TxAbort

namespace tamp {

enum class OTxStatus : int { kActive, kCommitted, kAborted };

/// Shared status word of one transaction attempt.
struct OTxDescriptor {
    std::atomic<OTxStatus> status{OTxStatus::kActive};

    bool try_commit() {
        OTxStatus expected = OTxStatus::kActive;
        return status.compare_exchange_strong(expected,
                                              OTxStatus::kCommitted,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire);
    }
    void abort() {
        OTxStatus expected = OTxStatus::kActive;
        status.compare_exchange_strong(expected, OTxStatus::kAborted,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
    }
};

namespace detail {

struct OLocator {
    std::shared_ptr<OTxDescriptor> owner;
    void* new_version = nullptr;
    void* old_version = nullptr;
    void (*box_deleter)(void*) = nullptr;  // typed delete for the boxes

    /// The box this locator currently denotes.
    const void* resolve() const {
        return owner->status.load(std::memory_order_acquire) ==
                       OTxStatus::kCommitted
                   ? new_version
                   : old_version;
    }
};

struct OFreeVarBase {
    std::atomic<OLocator*> locator{nullptr};
};

}  // namespace detail

/// An obstruction-free transactional variable.
template <typename T>
class OFreeTVar : private detail::OFreeVarBase {
    struct Box {
        T value;
    };

  public:
    explicit OFreeTVar(T init = T{}) {
        auto* loc = new detail::OLocator();
        loc->owner = committed_sentinel();
        loc->new_version = new Box{std::move(init)};
        loc->old_version = nullptr;
        loc->box_deleter = &delete_box;
        this->locator.store(loc, std::memory_order_release);
    }

    ~OFreeTVar() {
        auto* loc = this->locator.load(std::memory_order_relaxed);
        delete_box(loc->new_version);
        delete_box(loc->old_version);
        delete loc;
    }

    OFreeTVar(const OFreeTVar&) = delete;
    OFreeTVar& operator=(const OFreeTVar&) = delete;

    /// Quiescent read (no transaction).
    T unsafe_read() const {
        reclaim::ebr::guard g;
        const detail::OLocator* loc =
            this->locator.load(std::memory_order_acquire);
        return static_cast<const Box*>(loc->resolve())->value;
    }

    detail::OFreeVarBase* base() { return this; }

  private:
    friend class OFreeTransaction;

    static void delete_box(void* p) { delete static_cast<Box*>(p); }

    static std::shared_ptr<OTxDescriptor> committed_sentinel() {
        static std::shared_ptr<OTxDescriptor> s = [] {
            auto d = std::make_shared<OTxDescriptor>();
            d->status.store(OTxStatus::kCommitted,
                            std::memory_order_relaxed);
            return d;
        }();
        return s;
    }
};

/// One attempt; created by o_atomically().
class OFreeTransaction {
  public:
    explicit OFreeTransaction(std::shared_ptr<OTxDescriptor> self)
        : self_(std::move(self)) {}

    template <typename T>
    T read(OFreeTVar<T>& var) {
        using Box = typename OFreeTVar<T>::Box;
        auto* base = var.base();
        if (auto it = written_.find(base); it != written_.end()) {
            return static_cast<Box*>(it->second->new_version)->value;
        }
        detail::OLocator* loc =
            base->locator.load(std::memory_order_acquire);
        const void* box = loc->resolve();
        validate();  // all earlier reads must still hold: opacity
        reads_.push_back({base, loc, box});
        return static_cast<const Box*>(box)->value;
    }

    template <typename T>
    void write(OFreeTVar<T>& var, std::type_identity_t<T> value) {
        using Box = typename OFreeTVar<T>::Box;
        auto* base = var.base();
        if (auto it = written_.find(base); it != written_.end()) {
            static_cast<Box*>(it->second->new_version)->value =
                std::move(value);
            return;
        }
        // Open for write: install a locator owned by us whose old version
        // is the current (owner-resolved) box.
        while (true) {
            detail::OLocator* old_loc =
                base->locator.load(std::memory_order_acquire);
            const OTxStatus owner_status =
                old_loc->owner->status.load(std::memory_order_acquire);
            if (owner_status == OTxStatus::kActive &&
                old_loc->owner.get() != self_.get()) {
                // Contention: abort the rival (aggressive manager), then
                // re-resolve against its now-terminal status.
                old_loc->owner->abort();
                continue;
            }
            void* current = const_cast<void*>(old_loc->resolve());
            auto* fresh = new detail::OLocator();
            fresh->owner = self_;
            fresh->old_version = current;
            fresh->new_version = new Box{value};
            fresh->box_deleter = old_loc->box_deleter;
            if (base->locator.compare_exchange_weak(
                    old_loc, fresh, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                written_[base] = fresh;
                retire_displaced(old_loc, current);
                validate();  // our reads must still hold
                return;
            }
            old_loc->box_deleter(fresh->new_version);
            delete fresh;  // lost the install race: retry
        }
    }

    /// Final validation + the one-CAS commit.
    bool commit() {
        for (const auto& entry : reads_) {
            if (!still_valid(entry)) {
                self_->abort();
                obs::counter<obs::ev::stm_aborts_version>::inc();
                obs::record_since<obs::ev::stm_abort_version_ns>(
                    start_ticks_);
                obs::trace(obs::trace_ev::kStmAbort, 2);
                return false;
            }
        }
        if (self_->try_commit()) {
            obs::counter<obs::ev::stm_commits>::inc();
            obs::record_since<obs::ev::stm_commit_ns>(start_ticks_);
            return true;
        }
        // The status CAS lost: a rival's aggressive contention manager
        // aborted us while we were validating.
        obs::counter<obs::ev::stm_aborts_rival>::inc();
        obs::record_since<obs::ev::stm_abort_rival_ns>(start_ticks_);
        obs::trace(obs::trace_ev::kStmAbort, 3);
        return false;
    }

    OTxStatus status() const {
        return self_->status.load(std::memory_order_acquire);
    }

    std::size_t read_set_size() const { return reads_.size(); }
    std::size_t write_set_size() const { return written_.size(); }

  private:
    struct ReadEntry {
        detail::OFreeVarBase* base;
        detail::OLocator* locator;
        const void* box;  // value identity at read time
    };

    bool still_valid(const ReadEntry& e) const {
        if (written_.count(e.base) != 0) {
            // We opened it after reading: our locator's old version must
            // be the box we read (we built it from the then-current box).
            auto it = written_.find(e.base);
            return it->second->old_version == e.box;
        }
        detail::OLocator* now =
            e.base->locator.load(std::memory_order_acquire);
        return now == e.locator && now->resolve() == e.box;
    }

    void validate() const {
        for (const auto& entry : reads_) {
            if (!still_valid(entry)) {
                obs::counter<obs::ev::stm_aborts_validation>::inc();
                obs::record_since<obs::ev::stm_abort_validation_ns>(
                    start_ticks_);
                obs::trace(obs::trace_ev::kStmAbort, 0);
                throw TxAbort{};
            }
        }
    }

    static void retire_displaced(detail::OLocator* loc,
                                 void* surviving_box) {
        // Of the shell's two boxes, one lives on inside the new locator;
        // the other belonged to an aborted/superseded lineage.
        void* dead = loc->new_version == surviving_box ? loc->old_version
                                                       : loc->new_version;
        if (dead != nullptr) {
            reclaim::ebr::retire(dead, loc->box_deleter);
        }
        reclaim::ebr::retire(loc);
    }

    std::shared_ptr<OTxDescriptor> self_;
    // Attempt birth timestamp for commit/abort-latency attribution;
    // constant 0 in stats-off builds.
    std::uint64_t start_ticks_ = obs::tick<>();
    std::vector<ReadEntry> reads_;
    std::map<detail::OFreeVarBase*, detail::OLocator*> written_;
};

/// Run `fn(tx)` under the obstruction-free STM until it commits.
template <typename Fn>
auto o_atomically(Fn&& fn) {
    Backoff backoff(32, 16384);
    while (true) {
        auto desc = std::make_shared<OTxDescriptor>();
        OFreeTransaction tx(desc);
        reclaim::ebr::guard guard;  // pin the whole attempt (see header comment)
        try {
            if constexpr (std::is_void_v<decltype(fn(tx))>) {
                fn(tx);
                if (tx.commit()) return;
            } else {
                auto result = fn(tx);
                if (tx.commit()) return result;
            }
        } catch (const TxAbort&) {
            desc->abort();
        }
        backoff.backoff();  // aborted: retreat before retrying
    }
}

}  // namespace tamp
