// tamp/lists/keyed.hpp
//
// Shared ordering machinery for the Chapter 9 list-based sets (and reused
// by the skiplists and hash sets).
//
// The book orders list nodes by `item.hashCode()` and keeps sentinels with
// keys −∞ and +∞.  Hash codes collide, and the book's own erratum (quoted
// with the task's source text) fixes the search loop to tie-break on the
// item itself.  We do the same: nodes are ordered by (hash, value), values
// must be totally ordered, and sentinels are a node *kind* rather than
// reserved key values (so no hash value is off-limits).

#pragma once

#include <concepts>
#include <cstdint>
#include <functional>

#include "tamp/core/bits.hpp"

namespace tamp {

/// Node kinds: every list has exactly one head and one tail sentinel.
enum class NodeKind : std::uint8_t { kHead, kItem, kTail };

/// Default key extractor: std::hash, mixed so that consecutive integers
/// spread out (std::hash<int> is the identity in libstdc++, which would
/// make "hash order" just integer order and hide collision handling).
template <typename T>
struct DefaultKeyOf {
    std::uint64_t operator()(const T& v) const {
        return detail::mix64(std::hash<T>{}(v));  // splitmix64 finalizer
    }
};

/// Three-way position test used by every search loop: should the search
/// keep moving past a node with (kind, key, value) when looking for
/// (target_key, target_value)?
///
/// Implements the erratum'd loop condition
///   curr.key < key || (curr.key == key && !(curr.item == item))
/// extended with sentinel kinds and a total tie-break so that distinct
/// items with colliding hashes have a unique position.
template <std::totally_ordered T>
struct KeyedOrder {
    /// node < target ?
    static bool node_precedes(NodeKind kind, std::uint64_t node_key,
                              const T& node_value, std::uint64_t target_key,
                              const T& target_value) {
        if (kind == NodeKind::kHead) return true;
        if (kind == NodeKind::kTail) return false;
        if (node_key != target_key) return node_key < target_key;
        if (node_value == target_value) return false;  // found position
        return node_value < target_value;
    }

    /// node == target ?
    static bool node_matches(NodeKind kind, std::uint64_t node_key,
                             const T& node_value, std::uint64_t target_key,
                             const T& target_value) {
        return kind == NodeKind::kItem && node_key == target_key &&
               node_value == target_value;
    }
};

}  // namespace tamp
