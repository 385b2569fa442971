// tamp/tamp.hpp — the whole library.
//
// tamp (The Art of Multiprocessor Programming) implements the complete
// algorithm catalog of Herlihy & Shavit's book in C++20, one module per
// chapter family.  Include this for everything, or the per-module
// umbrella headers for just one family.
#pragma once

#include "tamp/barrier/barriers.hpp"
#include "tamp/check/check.hpp"
#include "tamp/consensus/consensus.hpp"
#include "tamp/consensus/universal.hpp"
#include "tamp/core/core.hpp"
#include "tamp/counting/counting.hpp"
#include "tamp/hash/hash.hpp"
#include "tamp/kv/kv.hpp"
#include "tamp/lists/lists.hpp"
#include "tamp/monitor/reentrant.hpp"
#include "tamp/monitor/rwlock.hpp"
#include "tamp/monitor/semaphore.hpp"
#include "tamp/mutex/mutex.hpp"
#include "tamp/obs/obs.hpp"
#include "tamp/pqueue/pqueue.hpp"
#include "tamp/queues/queues.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/registers/registers.hpp"
#include "tamp/skiplist/skiplist.hpp"
#include "tamp/spin/spin.hpp"
#include "tamp/stacks/stacks.hpp"
#include "tamp/steal/steal.hpp"
#include "tamp/stm/ofree_stm.hpp"
#include "tamp/stm/stm.hpp"
