// tamp/hash/cuckoo.hpp
//
// Concurrent (phased) cuckoo hashing (§13.4, Figs. 13.19–13.27).
//
// Open addressing with two tables and two hash functions: item x lives in
// table[0][h0(x)] or table[1][h1(x)].  The book's concurrent variant
// relaxes each slot into a small *probe set* (up to kProbeSize items, with
// only kThreshold considered "in place"); an add that overflows the
// threshold parks the item in the probe set's overflow zone and then
// *relocates* items toward their alternate homes; relocation failure
// triggers a resize.
//
// StripedCuckooHashSet specializes the acquire/release hooks with a fixed
// 2×L array of stripe locks; acquire takes lock[0][h0 % L] then
// lock[1][h1 % L] — always in that order, so no deadlock — and resizes
// take every stripe of row 0 (which suffices: every acquire must pass
// row 0 first).

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tamp/core/cacheline.hpp"
#include "tamp/lists/keyed.hpp"
#include "tamp/sim/atomic.hpp"

namespace tamp {

template <typename T, typename KeyOf = DefaultKeyOf<T>>
class StripedCuckooHashSet {
    static constexpr std::size_t kProbeSize = 4;
    static constexpr std::size_t kThreshold = 2;
    static constexpr int kRelocateLimit = 512;

  public:
    using value_type = T;

    explicit StripedCuckooHashSet(std::size_t capacity = 16)
        : capacity_(round_up(capacity)),
          stripes_(round_up(capacity)),
          locks_{std::vector<Padded<StripeCell>>(stripes_),
                 std::vector<Padded<StripeCell>>(stripes_)} {
        table_[0].assign(stripes_, {});
        table_[1].assign(stripes_, {});
    }

    bool add(const T& v) {
        while (true) {
            bool must_resize = false;
            int relocate_row = -1;
            std::size_t relocate_slot = 0;
            {
                TwoStripeGuard g(*this, v);
                if (present_unlocked(v)) return false;
                auto& set0 = table_[0][slot(0, v)];
                auto& set1 = table_[1][slot(1, v)];
                if (set0.size() < kThreshold) {
                    set0.push_back(v);
                    return true;
                }
                if (set1.size() < kThreshold) {
                    set1.push_back(v);
                    return true;
                }
                if (set0.size() < kProbeSize) {
                    set0.push_back(v);
                    relocate_row = 0;
                    relocate_slot = slot(0, v);
                } else if (set1.size() < kProbeSize) {
                    set1.push_back(v);
                    relocate_row = 1;
                    relocate_slot = slot(1, v);
                } else {
                    must_resize = true;
                }
            }
            if (must_resize) {
                resize();
                continue;  // retry the add against the bigger table
            }
            if (!relocate(relocate_row, relocate_slot)) resize();
            return true;
        }
    }

    bool remove(const T& v) {
        TwoStripeGuard g(*this, v);
        auto& set0 = table_[0][slot(0, v)];
        for (std::size_t i = 0; i < set0.size(); ++i) {
            if (set0[i] == v) {
                set0.erase(set0.begin() + static_cast<long>(i));
                return true;
            }
        }
        auto& set1 = table_[1][slot(1, v)];
        for (std::size_t i = 0; i < set1.size(); ++i) {
            if (set1[i] == v) {
                set1.erase(set1.begin() + static_cast<long>(i));
                return true;
            }
        }
        return false;
    }

    bool contains(const T& v) {
        TwoStripeGuard g(*this, v);
        return present_unlocked(v);
    }

    std::size_t capacity() const { return cap(); }

  private:
    struct StripeCell {
        std::recursive_mutex mu;  // resize re-enters via relocate's adds
    };

    static std::size_t round_up(std::size_t c) {
        std::size_t r = 8;
        while (r < c) r *= 2;
        return r;
    }

    // Two independent hash functions derived from the key extractor by
    // distinct avalanche mixes.
    static std::uint64_t hash0(const T& v) { return KeyOf{}(v); }
    static std::uint64_t hash1(const T& v) {
        std::uint64_t x = KeyOf{}(v) ^ 0xC2B2AE3D27D4EB4Full;
        x = (x ^ (x >> 29)) * 0x9E3779B97F4A7C15ull;
        return x ^ (x >> 32);
    }

    std::size_t cap() const {
        return capacity_.load(std::memory_order_relaxed);
    }

    std::size_t slot(int row, const T& v) const {
        return (row == 0 ? hash0(v) : hash1(v)) % cap();
    }

    /// Both stripes for v, row 0 first (global order ⇒ no deadlock).
    class TwoStripeGuard {
      public:
        TwoStripeGuard(StripedCuckooHashSet& s, const T& v)
            : a_(s.locks_[0][hash0(v) % s.stripes_].value.mu),
              b_(s.locks_[1][hash1(v) % s.stripes_].value.mu) {
            a_.lock();
            b_.lock();
        }
        ~TwoStripeGuard() {
            b_.unlock();
            a_.unlock();
        }
        TwoStripeGuard(const TwoStripeGuard&) = delete;
        TwoStripeGuard& operator=(const TwoStripeGuard&) = delete;

      private:
        std::recursive_mutex& a_;
        std::recursive_mutex& b_;
    };
    friend class TwoStripeGuard;

    bool present_unlocked(const T& v) const {
        for (const T& x : table_[0][slot(0, v)]) {
            if (x == v) return true;
        }
        for (const T& x : table_[1][slot(1, v)]) {
            if (x == v) return true;
        }
        return false;
    }

    /// Walk the displacement chain (Fig. 13.27): repeatedly move the
    /// oldest item of the overflowing probe set to its alternate home.
    bool relocate(int row, std::size_t slot_index) {
        int i = row;
        std::size_t hi = slot_index;
        for (int round = 0; round < kRelocateLimit; ++round) {
            T y{};
            {
                // Peek the oldest item under the set's own stripe.  (A
                // slot's stripe index is its slot index mod L, because
                // the table capacity is always a multiple of L.)
                std::lock_guard<std::recursive_mutex> peek(
                    locks_[i][hi % stripes_].value.mu);
                auto& set_i = table_[i][hi];
                if (set_i.size() <= kThreshold) return true;  // fixed itself
                y = set_i[0];
            }
            // Re-verify and move under y's full two-stripe protection
            // (taken fresh, in row order, so no deadlock).
            const int j = 1 - i;
            {
                TwoStripeGuard g(*this, y);
                auto& set_i2 = table_[i][slot(i, y)];
                bool still_there = false;
                for (std::size_t k = 0; k < set_i2.size(); ++k) {
                    if (set_i2[k] == y) {
                        set_i2.erase(set_i2.begin() + static_cast<long>(k));
                        still_there = true;
                        break;
                    }
                }
                if (still_there) {
                    auto& set_j = table_[j][slot(j, y)];
                    if (set_j.size() < kThreshold) {
                        set_j.push_back(y);
                        return true;
                    }
                    if (set_j.size() < kProbeSize) {
                        set_j.push_back(y);
                        // The alternate set is now overfull: keep going
                        // from there.
                        i = j;
                        hi = slot(j, y);
                        continue;
                    }
                    // No room anywhere: put it back and give up (resize).
                    set_i2.push_back(y);
                    return false;
                }
                // Someone moved/removed y meanwhile; reassess next round.
            }
        }
        return false;
    }

    /// Quiesce by taking every stripe of both rows (row 0 first, matching
    /// TwoStripeGuard's order), then rebuild at double capacity.
    void resize() {
        const std::size_t old_capacity = cap();
        std::vector<std::unique_lock<std::recursive_mutex>> held;
        held.reserve(2 * stripes_);
        for (auto& cell : locks_[0]) held.emplace_back(cell.value.mu);
        for (auto& cell : locks_[1]) held.emplace_back(cell.value.mu);
        if (cap() != old_capacity) return;  // someone else resized
        std::vector<T> everything;
        for (int row = 0; row < 2; ++row) {
            for (auto& set : table_[row]) {
                everything.insert(everything.end(), set.begin(), set.end());
                set.clear();
            }
        }
        capacity_.store(2 * old_capacity, std::memory_order_relaxed);
        table_[0].assign(2 * old_capacity, {});
        table_[1].assign(2 * old_capacity, {});
        for (const T& v : everything) {
            // Re-add under the held locks: direct placement, relocating
            // sequentially (we are alone).
            sequential_place(v);
        }
    }

    void sequential_place(const T& v) {
        T item = v;
        int row = 0;
        for (int round = 0; round < kRelocateLimit; ++round) {
            auto& set = table_[row][slot(row, item)];
            if (set.size() < kThreshold) {
                set.push_back(item);
                return;
            }
            auto& other = table_[1 - row][slot(1 - row, item)];
            if (other.size() < kThreshold) {
                other.push_back(item);
                return;
            }
            // Evict the oldest occupant of the first set and displace it.
            set.push_back(item);
            item = set[0];
            set.erase(set.begin());
            row = 1 - row;
        }
        // Degenerate hash behaviour: grow again and retry.
        // (Practically unreachable with the avalanche mixes above.)
        std::vector<T> spill{item};
        capacity_.store(2 * cap(), std::memory_order_relaxed);
        std::vector<T> everything = std::move(spill);
        for (int r = 0; r < 2; ++r) {
            for (auto& s : table_[r]) {
                everything.insert(everything.end(), s.begin(), s.end());
                s.clear();
            }
        }
        table_[0].assign(cap(), {});
        table_[1].assign(cap(), {});
        for (const T& x : everything) sequential_place(x);
    }

    // Written only under every stripe lock, and read under one except by
    // resize()'s first look (re-checked under the locks) and capacity():
    // atomic for those two, relaxed because the locks order the rest.
    tamp::atomic<std::size_t> capacity_;
    const std::size_t stripes_;  // fixed at construction
    std::vector<Padded<StripeCell>> locks_[2];
    std::vector<std::vector<T>> table_[2];
};

}  // namespace tamp
