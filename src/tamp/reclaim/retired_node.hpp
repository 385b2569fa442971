// tamp/reclaim/retired_node.hpp
//
// A retired node as every reclamation backend keeps it until its grace
// period or hazard scan clears it: the pointer and the deleter to run.

#pragma once

#include "tamp/check/tsan_annotate.hpp"

namespace tamp::reclaim_detail {

struct RetiredNode {
    void* ptr;
    void (*deleter)(void*);

    /// Run the deleter.  Pairs with the TAMP_TSAN_RELEASE in each
    /// backend's retire(): the retire→free edge rides on the scan or
    /// grace-period argument, which TSan cannot follow onto `ptr` itself.
    void free() const {
        TAMP_TSAN_ACQUIRE(ptr);
        deleter(ptr);
    }
};

/// The deleter of a typed retire(T*): `delete` as a T.
template <typename T>
void delete_as(void* p) {
    delete static_cast<T*>(p);
}

}  // namespace tamp::reclaim_detail
