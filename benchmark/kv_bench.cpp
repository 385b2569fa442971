// benchmark/kv_bench.cpp — one run of one workload against tamp::kv.
//
//   kv_bench --workload NAME --seed N --seconds S [--trace-out FILE]
//
// Sets the system up kSetups times (timing each), warms up, then measures
// kWindows consecutive windows of S / kWindows seconds and prints one JSON
// object on stdout: {"correct", "attempted", "failed", "metrics"}, each
// metric as [value, unit].  End-to-end metrics are the median of the
// windows.  benchmark/run.py builds and runs this; see benchmark/README.md.
//
// kv_bench reaches the service only through its public calls
// (KvStore::get/put/del/scan/shard, Pipeline::submit/completed/
// submitted/drain, reclaim::ebr/hp::pending) and times each layer from
// outside, around those calls.  Built against a TAMP_STATS=ON library it
// is the traced run: every call is timed, 1 in kSpanStride calls leaves a
// span, and the spans are written as a Chrome trace to --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "tamp/core/backoff.hpp"
#include "tamp/kv/kv.hpp"
#include "tamp/obs/config.hpp"
#include "tamp/obs/counter.hpp"
#include "tamp/reclaim/domain.hpp"
#include "tamp/steal/pool.hpp"

namespace {

using kvbench::KeyPicker;
using kvbench::mix64;
using kvbench::Rng;

constexpr bool kTraced = tamp::obs::kStatsEnabled;

// Load shape: at most three busy threads on the 4-CPU host, one process.
constexpr int kClients = 3;   // closed-loop clients (and preload threads)
constexpr int kDrainers = 2;  // pipeline: pool workers; plus 1 generator
constexpr std::size_t kLanes = 2;
constexpr int kSetups = 5;    // setup_s is the median of these
// End-to-end metrics: the median of the windows.  The host's speed wanders
// by 10-20% from one second to the next; many short windows let the
// median pass over those swings.
constexpr int kWindows = 12;
constexpr std::int64_t kWarmupNs = 2'000'000'000;
constexpr std::uint64_t kLatencyStride = 16;  // time 1 in 16 (sampled())
constexpr std::uint64_t kSpanStride = 64;     // traced: span 1 in 64
constexpr std::size_t kReservoir = std::size_t{1} << 14;  // per window
// scan-insert-zipf: each client inserts a fresh key every kInsertPeriodNs
// (3 x 20k inserts/s), from launch to stop.  Tied to the clock, not to a
// share of the ops, the map grows by the same amount in every run, so its
// memory does not follow the throughput.
constexpr std::int64_t kInsertPeriodNs = 50'000;
constexpr std::uint64_t kClockStride = 8;  // clients read the clock 1 in 8
constexpr std::size_t kMaxSpans = std::size_t{1} << 15;  // per thread
constexpr std::size_t kScanLimit = 16;
constexpr double kOpenRate = 250'000.0;            // pipeline-250k req/s
constexpr std::uint64_t kOpenCap = std::uint64_t{1} << 20;  // refused past
// Outstanding requests in pipeline-saturate.  The generator and the two
// drainers run at nearly the same rate, so with 256 each window sat either
// generator-bound (p50 ~5 us) or with the window full (p50 ~250 us); 16
// keeps the throughput of 256 and the latency in one regime.
constexpr std::uint64_t kSaturateWindow = 16;
constexpr std::int64_t kPendingPeriodNs = 100'000'000;

using Store = tamp::kv::KvStore<std::uint64_t, std::uint64_t>;
using Pair = std::pair<std::uint64_t, std::uint64_t>;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void die(const char* msg) {
    std::fprintf(stderr, "kv_bench: %s\n", msg);
    std::exit(2);
}

// ------------------------------------------------------------ workloads --

enum class Loop : std::uint8_t { kMix, kChurn, kOpen, kSaturate };

struct Spec {
    const char* name;
    Loop loop;
    std::uint64_t keys;  // preloaded
    int get, put, scan;  // percent (kMix and the pipelines)
    bool inserts;        // kMix: fresh inserts every kInsertPeriodNs
    bool zipf;
};

constexpr Spec kSpecs[] = {
    {"read-zipf", Loop::kMix, 1u << 20, 95, 5, 0, false, true},
    {"update-uniform-4m", Loop::kMix, 1u << 22, 50, 50, 0, false, false},
    {"scan-insert-zipf", Loop::kMix, 1u << 20, 75, 20, 5, true, true},
    {"churn-1m", Loop::kChurn, 1u << 20, 0, 0, 0, false, false},
    {"pipeline-250k", Loop::kOpen, 1u << 20, 95, 5, 0, false, true},
    {"pipeline-saturate", Loop::kSaturate, 1u << 20, 95, 5, 0, false, true},
};

/// The per-layer timings kept in the traced run.  The first five are the
/// KvStore calls: a put that updated (kPut) and one that inserted
/// (kInsert) are told apart by its return value.
enum Layer : std::uint8_t {
    kGet, kPut, kInsert, kDel, kScan,   // KvStore
    kSubmit, kLate, kWait, kService, kGap,  // Pipeline
    kNumLayers
};

// Values carry a 32-bit tag of their key in the high half, so every read
// can check that the value it got belongs to the key it asked for.
std::uint64_t tag_of(std::uint64_t key) {
    return mix64(key ^ 0x5851F42D4C957F2Dull) >> 32;
}
std::uint64_t value_for(std::uint64_t key, std::uint64_t r) {
    return (tag_of(key) << 32) | (r & 0xFFFFFFFFull);
}
bool tagged(std::uint64_t key, std::uint64_t v) {
    return (v >> 32) == tag_of(key);
}

// Keys a client inserts: top bit set, client in bits 40.., a counter below.
std::uint64_t fresh_key(int client, std::uint64_t n) {
    return (std::uint64_t{1} << 63) |
           (static_cast<std::uint64_t>(client) << 40) | n;
}
bool valid_key(std::uint64_t key, std::uint64_t preloaded) {
    if (key < preloaded) return true;
    return (key >> 63) != 0 &&
           ((key >> 40) & 0x7FFFFFull) < static_cast<std::uint64_t>(kClients);
}

// Whether call or request `i` is one of the 1 in `stride` sampled.  A hash
// of the index, not i % stride: churn alternates insert and del by call
// index and the pipeline picks lanes by request id, so a plain modulus
// would time only inserts, or only lane 0.
bool sampled(std::uint64_t i, std::uint64_t stride) {
    return (mix64(i) & (stride - 1)) == 0;
}

// ---------------------------------------------------------- recording --

/// Uniform sample (Algorithm R) of up to kReservoir values of a stream.
/// The storage is allocated and touched up front, so the benchmark's own
/// memory does not grow with the throughput it measures.
class Reservoir {
  public:
    Reservoir() : v_(kReservoir) {}

    void add(std::int64_t x, Rng& rng) {
        const auto val = static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(x, 0, UINT32_MAX));
        if (seen_ < kReservoir) {
            v_[seen_] = val;
        } else if (const std::uint64_t j = rng.below(seen_ + 1);
                   j < kReservoir) {
            v_[j] = val;
        }
        ++seen_;
    }
    std::uint64_t seen() const { return seen_; }
    std::size_t kept() const {
        return std::min<std::uint64_t>(seen_, kReservoir);
    }
    std::uint32_t operator[](std::size_t i) const { return v_[i]; }

  private:
    std::vector<std::uint32_t> v_;
    std::uint64_t seen_ = 0;
};

/// Percentiles over several reservoirs, each sample weighted by how many
/// values of its stream it stands for.
class Quantiles {
  public:
    void add(const Reservoir& r) {
        if (r.kept() == 0) return;
        const double w =
            static_cast<double>(r.seen()) / static_cast<double>(r.kept());
        for (std::size_t i = 0; i < r.kept(); ++i) v_.push_back({r[i], w});
        seen_ += r.seen();
    }
    std::uint64_t seen() const { return seen_; }
    /// Nearest-rank percentile, q in (0, 1]; 0 when there are no samples.
    double at(double q) {
        if (v_.empty()) return 0.0;
        if (!sorted_) {
            std::sort(v_.begin(), v_.end());
            total_ = 0.0;
            for (const auto& s : v_) total_ += s.second;
            sorted_ = true;
        }
        const double rank = q * total_;
        double acc = 0.0;
        for (const auto& s : v_) {
            acc += s.second;
            if (acc >= rank) return s.first;
        }
        return v_.back().first;
    }

  private:
    std::vector<std::pair<double, double>> v_;  // (value, weight)
    std::uint64_t seen_ = 0;
    double total_ = 0.0;
    bool sorted_ = false;
};

/// One span.  Closed loops: an `op` [begin, end) with its layer in `kind`.
/// Generator: `submit` [begin, end) of request `id`, due at `due`.
/// Drainer: `service` [begin, end) of request `id`.
struct Span {
    std::uint64_t id;
    std::int64_t due, begin, end;
    std::uint8_t kind;
};

/// Everything one thread records.  Written only by its owner thread;
/// `ops` is also read by the main thread at window boundaries.
struct Recorder {
    Recorder(std::uint64_t seed, std::uint64_t stream)
        : sampler(seed, stream),
          latency(kWindows),
          layer(kTraced ? kNumLayers : 0) {
        if (kTraced) spans.reserve(kMaxSpans);
    }

    alignas(64) std::atomic<std::uint64_t> ops{0};
    std::uint64_t failed = 0;
    std::uint64_t inserts = 0;  // successful inserting puts
    std::uint64_t deletes = 0;  // successful dels
    Rng sampler;                // reservoir draws, apart from the inputs
    std::vector<Reservoir> latency;  // end-to-end, per window
    // Traced run only.
    std::vector<Reservoir> layer;
    std::int64_t busy_ns = 0;
    std::uint64_t backlog_max = 0;
    std::int64_t gap_from = -1;  // last service end with work waiting
    std::vector<Span> spans;
};

struct Timeline {
    std::int64_t launch = 0;  // threads start; warm-up begins
    std::int64_t start = 0;   // first window begins
    std::int64_t window = 0;  // window length

    std::int64_t boundary(int k) const { return start + k * window; }
    std::int64_t end() const { return boundary(kWindows); }
    bool measured(std::int64_t t) const { return t >= start && t < end(); }
    int window_of(std::int64_t t) const {
        return measured(t) ? static_cast<int>((t - start) / window) : -1;
    }
};

// ------------------------------------------------------------ pipeline --

/// The request key the pipeline carries: the store key plus the request's
/// id and due time, which Pipeline passes through to TimedStore unchanged.
struct ReqKey {
    std::uint64_t key = 0;
    std::uint64_t id = 0;
    std::int64_t due = 0;

    ReqKey() = default;
    explicit ReqKey(std::uint64_t k) : key(k) {}
    ReqKey(std::uint64_t k, std::uint64_t i, std::int64_t d)
        : key(k), id(i), due(d) {}
};

class TimedStore;
using Pipe = tamp::kv::Pipeline<TimedStore>;

/// What the pipeline's drainers call: forwards to the KvStore, checks the
/// result, and records the request's sojourn (due -> service end) and, in
/// the traced run, the service-side layer timings.
class TimedStore {
  public:
    using key_type = ReqKey;
    using mapped_type = std::uint64_t;

    TimedStore(Store& store, const Timeline& tl,
               std::vector<std::unique_ptr<Recorder>>& drainers)
        : store_(&store), tl_(&tl), drainers_(&drainers) {}

    void attach(const Pipe& pipe) { pipe_ = &pipe; }

    std::optional<std::uint64_t> get(const ReqKey& k) {
        Recorder& rec = mine();
        const std::int64_t t0 = begin(rec, k);
        const auto v = store_->get(k.key);
        finish(rec, k, kGet, t0, v && tagged(k.key, *v));
        return v;
    }
    bool put(const ReqKey& k, const std::uint64_t& v) {
        Recorder& rec = mine();
        const std::int64_t t0 = begin(rec, k);
        const bool inserted = store_->put(k.key, v);
        finish(rec, k, kPut, t0, !inserted);  // pipelines only update
        return inserted;
    }
    /// Pipelines send no scans; one arriving is a failure.
    std::size_t scan(const ReqKey& k, std::size_t,
                     std::vector<std::pair<ReqKey, std::uint64_t>>&) {
        Recorder& rec = mine();
        finish(rec, k, kScan, begin(rec, k), false);
        return 0;
    }

  private:
    Recorder& mine() {
        thread_local Recorder* rec = nullptr;
        if (rec == nullptr) {
            const std::size_t i = next_.fetch_add(1);
            if (i >= drainers_->size()) {
                die("more drainer threads than expected");
            }
            rec = (*drainers_)[i].get();
        }
        return *rec;
    }

    /// Requests submitted but not completed (this one included while it
    /// is served).  submitted() is read first, so a delay between the two
    /// loads can only understate the backlog, never inflate its maximum.
    std::uint64_t backlog() const {
        const std::uint64_t sub = pipe_->submitted();
        const std::uint64_t done = pipe_->completed();
        return sub > done ? sub - done : 0;
    }

    std::int64_t begin(Recorder& rec, const ReqKey& k) {
        if constexpr (!kTraced) {
            return 0;
        } else {
            const std::int64_t t0 = now_ns();
            if (tl_->measured(k.due)) {
                if (rec.gap_from >= 0) {
                    rec.layer[kGap].add(t0 - rec.gap_from, rec.sampler);
                }
                rec.layer[kWait].add(t0 - k.due, rec.sampler);
                rec.backlog_max = std::max(rec.backlog_max, backlog());
            }
            return t0;
        }
    }

    void finish(Recorder& rec, const ReqKey& k, Layer layer, std::int64_t t0,
                bool ok) {
        if (!ok) ++rec.failed;
        const bool sample = sampled(k.id, kLatencyStride);
        if (!kTraced && !sample) return;
        const std::int64_t t1 = now_ns();
        if (sample) {
            if (const int w = tl_->window_of(k.due); w >= 0) {
                rec.latency[w].add(t1 - k.due, rec.sampler);
            }
        }
        if constexpr (kTraced) {
            if (!tl_->measured(k.due)) return;
            rec.layer[layer].add(t1 - t0, rec.sampler);
            rec.layer[kService].add(t1 - t0, rec.sampler);
            rec.busy_ns += t1 - t0;
            // Other requests still outstanding once this one is served:
            // the time to this drainer's next service start is a gap.
            rec.gap_from = backlog() > 1 ? t1 : -1;
            if (sampled(k.id, kSpanStride) && rec.spans.size() < kMaxSpans) {
                rec.spans.push_back({k.id, k.due, t0, t1, kService});
            }
        }
    }

    Store* store_;
    const Timeline* tl_;
    std::vector<std::unique_ptr<Recorder>>* drainers_;
    const Pipe* pipe_ = nullptr;
    std::atomic<std::size_t> next_{0};
};

/// The pipeline's machinery: 2 MS-queue lanes drained by a 2-worker pool.
struct Rig {
    Rig(Store& store, const Timeline& tl,
        std::vector<std::unique_ptr<Recorder>>& drainers)
        : timed(store, tl, drainers),
          workload(timed, execute_only()),
          pool(kDrainers),
          pipe(timed, workload, pool, kLanes) {
        timed.attach(pipe);
        pipe.start();
    }
    ~Rig() { pipe.stop(); }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    // Pipeline calls only Workload::execute; the inputs come from
    // inputs.hpp, so the library generator's key space is left minimal.
    static tamp::kv::WorkloadConfig execute_only() {
        tamp::kv::WorkloadConfig cfg;
        cfg.key_space = 2;
        return cfg;
    }

    TimedStore timed;
    tamp::kv::Workload<TimedStore> workload;
    tamp::WorkStealingPool pool;
    Pipe pipe;
};

// ---------------------------------------------------------------- run --

struct Bench {
    const Spec& spec;
    std::uint64_t seed;
    Timeline tl;
    KeyPicker picker;
    std::vector<std::unique_ptr<Recorder>> clients, drainers;
    std::unique_ptr<Recorder> generator;
    std::atomic<bool> stop{false};
    std::unique_ptr<Store> store;
    std::unique_ptr<Rig> rig;  // pipelines; destroyed before the store

    Bench(const Spec& s, std::uint64_t sd)
        : spec(s), seed(sd), picker(s.keys, s.zipf) {
        for (int c = 0; c < kClients; ++c) {
            clients.push_back(std::make_unique<Recorder>(seed, 1000 + c));
        }
        // Pool workers, plus one slot for a thread helping in wait_idle.
        for (int d = 0; d <= kDrainers; ++d) {
            drainers.push_back(std::make_unique<Recorder>(seed, 2000 + d));
        }
        generator = std::make_unique<Recorder>(seed, 3000);
    }

    /// Requests reach the store through the Pipeline, not from clients.
    bool piped() const {
        return spec.loop == Loop::kOpen || spec.loop == Loop::kSaturate;
    }

    /// Store construction plus preload (plus pool and pipeline start).
    /// Returns false if a preloading put did not insert.
    bool set_up() {
        tamp::kv::Config cfg;
        cfg.shards = 8;
        cfg.max_load = 4;
        store = std::make_unique<Store>(cfg);
        std::atomic<bool> ok{true};
        std::vector<std::thread> ts;
        for (int t = 0; t < kClients; ++t) {
            ts.emplace_back([this, t, &ok] {
                Rng rng(seed, 4000 + t);
                for (std::uint64_t k = t; k < spec.keys; k += kClients) {
                    if (!store->put(k, value_for(k, rng.next()))) ok = false;
                }
            });
        }
        for (auto& t : ts) t.join();
        if (piped()) rig = std::make_unique<Rig>(*store, tl, drainers);
        return ok;
    }

    /// A timed closed-loop call [t0, t1): a `sample`d one feeds
    /// the end-to-end latency; traced, every one feeds its layer.
    void record(Recorder& rec, std::uint64_t i, bool sample, Layer layer,
                std::int64_t t0, std::int64_t t1) {
        if (sample) {
            if (const int w = tl.window_of(t0); w >= 0) {
                rec.latency[w].add(t1 - t0, rec.sampler);
            }
        }
        if constexpr (kTraced) {
            if (!tl.measured(t0)) return;
            rec.layer[layer].add(t1 - t0, rec.sampler);
            rec.busy_ns += t1 - t0;
            if (sampled(i, kSpanStride) && rec.spans.size() < kMaxSpans) {
                rec.spans.push_back({i, 0, t0, t1, layer});
            }
        }
    }

    void client(int c) {
        Recorder& rec = *clients[c];
        Rng rng(seed, c + 1);
        std::vector<Pair> buf;
        buf.reserve(kScanLimit);
        std::uint64_t fresh = 0;
        // churn: this client's live keys, oldest at `head`.
        std::vector<std::uint64_t> ring;
        std::size_t head = 0;
        std::uint64_t last_insert = 0;
        std::int64_t insert_due = tl.launch;  // spec.inserts: the next one
        if (spec.loop == Loop::kChurn) {
            for (std::uint64_t k = c; k < spec.keys; k += kClients) {
                ring.push_back(k);
            }
        }
        Store& s = *store;
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
            Layer layer;
            std::uint64_t key;
            if (spec.loop == Loop::kChurn) {
                if (i % 2 == 0) {
                    layer = kInsert;
                    key = last_insert = fresh_key(c, fresh++);
                } else {
                    layer = kDel;
                    key = ring[head];
                    ring[head] = last_insert;
                    head = head + 1 == ring.size() ? 0 : head + 1;
                }
            } else if (spec.inserts && i % kClockStride == 0 &&
                       now_ns() >= insert_due) {
                // Inserts take no draws, so the drawn gets, puts and scans
                // are the same for a seed wherever the clock puts them.
                layer = kInsert;
                key = fresh_key(c, fresh++);
                insert_due += kInsertPeriodNs;
            } else {
                const auto r = static_cast<int>(rng.below(100));
                layer = r < spec.get              ? kGet
                        : r < spec.get + spec.put ? kPut
                                                  : kScan;
                key = picker.next(rng);
            }
            const std::uint64_t value =
                value_for(key, layer == kInsert ? mix64(key) : rng.next());

            const bool sample = sampled(i, kLatencyStride);
            const bool timed = kTraced || sample;
            const std::int64_t t0 = timed ? now_ns() : 0;
            bool ok = false;
            switch (layer) {
                case kGet: {
                    const auto v = s.get(key);
                    if (timed) record(rec, i, sample, layer, t0, now_ns());
                    ok = v && tagged(key, *v);
                    break;
                }
                case kPut: {
                    const bool inserted = s.put(key, value);
                    if (timed) record(rec, i, sample, layer, t0, now_ns());
                    ok = !inserted;
                    break;
                }
                case kInsert: {
                    const bool inserted = s.put(key, value);
                    if (timed) record(rec, i, sample, layer, t0, now_ns());
                    ok = inserted;
                    rec.inserts += inserted ? 1 : 0;
                    break;
                }
                case kDel: {
                    const bool deleted = s.del(key);
                    if (timed) record(rec, i, sample, layer, t0, now_ns());
                    ok = deleted;
                    rec.deletes += deleted ? 1 : 0;
                    break;
                }
                default: {
                    buf.clear();
                    const std::size_t n = s.scan(key, kScanLimit, buf);
                    if (timed) record(rec, i, sample, layer, t0, now_ns());
                    const auto exists = [&](const Pair& p) {
                        return tagged(p.first, p.second) &&
                               valid_key(p.first, spec.keys);
                    };
                    ok = n == buf.size() && n <= kScanLimit &&
                         std::all_of(buf.begin(), buf.end(), exists);
                    break;
                }
            }
            if (!ok) ++rec.failed;
            rec.ops.store(i + 1, std::memory_order_relaxed);
        }
    }

    /// The pipelines' single generator.  pipeline-250k submits request i
    /// at its due time launch + i / rate (late if the generator fell
    /// behind, refused past kOpenCap outstanding); pipeline-saturate
    /// submits whenever fewer than kSaturateWindow are outstanding, and a
    /// request is due when it is submitted.
    void generate() {
        Recorder& rec = *generator;
        Pipe& pipe = rig->pipe;
        Rng rng(seed, 1);
        const double period = 1e9 / kOpenRate;
        const std::uint64_t limit =
            spec.loop == Loop::kOpen ? kOpenCap : kSaturateWindow;
        std::uint64_t attempted = 0, submitted = 0;
        // completed() is a line both drainers write: re-read it only when
        // the last value read says the limit is reached.
        std::uint64_t done = 0;
        const auto below_limit = [&] {
            if (submitted - done < limit) return true;
            done = pipe.completed();
            return submitted - done < limit;
        };
        for (std::uint64_t id = 0;; ++id) {
            std::int64_t due = 0;
            if (spec.loop == Loop::kOpen) {
                due = tl.launch + static_cast<std::int64_t>(
                                      static_cast<double>(id) * period);
                if (due >= tl.end()) break;
                while (now_ns() < due) tamp::cpu_relax();
            } else {
                while ((due = now_ns()) < tl.end() && !below_limit()) {
                    tamp::cpu_relax();
                }
                if (due >= tl.end()) break;
            }
            const bool is_get =
                static_cast<int>(rng.below(100)) < spec.get;
            const std::uint64_t key = picker.next(rng);
            const std::uint64_t value = value_for(key, rng.next());
            ++attempted;
            if (!below_limit()) {
                ++rec.failed;  // pipeline-250k: refused past kOpenCap
                continue;
            }
            const std::int64_t t0 = kTraced ? now_ns() : 0;
            pipe.submit(is_get ? tamp::kv::OpKind::kRead
                               : tamp::kv::OpKind::kUpdate,
                        ReqKey(key, id, due), value, id);
            ++submitted;
            if constexpr (kTraced) {
                const std::int64_t t1 = now_ns();
                if (tl.measured(due)) {
                    rec.layer[kSubmit].add(t1 - t0, rec.sampler);
                    rec.layer[kLate].add(t0 - due, rec.sampler);
                    if (sampled(id, kSpanStride) &&
                        rec.spans.size() < kMaxSpans) {
                        rec.spans.push_back({id, due, t0, t1, kSubmit});
                    }
                }
            }
        }
        rec.ops.store(attempted, std::memory_order_relaxed);
    }

    std::uint64_t completed_ops() const {
        if (piped()) return rig->pipe.completed();
        std::uint64_t n = 0;
        for (const auto& r : clients) {
            n += r->ops.load(std::memory_order_relaxed);
        }
        return n;
    }
};

// ------------------------------------------------------------- report --

struct Metric {
    std::string name;
    double value;
    const char* unit;
};
using Metrics = std::vector<Metric>;

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, std::uint64_t> counters() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c : tamp::obs::snapshot()) out[c.name] = c.value;
    return out;
}

/// What the main thread samples at the first and last window boundary,
/// and in the traced run every kPendingPeriodNs between them.
struct Observed {
    std::map<std::string, std::uint64_t> counters0, counters1;
    std::uint64_t submitted0 = 0, submitted1 = 0;
    std::size_t ebr_pending_max = 0, hp_pending_max = 0;
};

/// A sampled pipeline request: its submit span (generator) and its
/// service span (drainer `drainer`), joined by request id.
struct Request {
    Span submit, service;
    int drainer;
};

std::vector<Request> join_requests(const Bench& b) {
    std::unordered_map<std::uint64_t, std::pair<Span, int>> service;
    for (int d = 0; d <= kDrainers; ++d) {
        for (const Span& s : b.drainers[d]->spans) service[s.id] = {s, d};
    }
    std::vector<Request> out;
    for (const Span& s : b.generator->spans) {
        if (auto it = service.find(s.id); it != service.end()) {
            out.push_back({s, it->second.first, it->second.second});
        }
    }
    return out;
}

void add_per_layer(const Bench& b, const Observed& o, Metrics& m) {
    const double span_ns = static_cast<double>(b.tl.end() - b.tl.start);
    Quantiles layer[kNumLayers];
    std::int64_t busy = 0;
    std::uint64_t backlog_max = 0;
    const auto merge = [&](const Recorder& r) {
        for (int l = 0; l < kNumLayers; ++l) layer[l].add(r.layer[l]);
        busy += r.busy_ns;
        backlog_max = std::max(backlog_max, r.backlog_max);
    };
    for (const auto& r : b.clients) merge(*r);
    for (const auto& r : b.drainers) merge(*r);
    merge(*b.generator);
    // Store calls come from the clients, or in the pipelines the drainers.
    const int store_threads = b.piped() ? kDrainers : kClients;
    const double store_busy =
        static_cast<double>(busy) / (store_threads * span_ns);

    m.push_back({"store.get_p50_ns", layer[kGet].at(0.50), "ns"});
    m.push_back({"store.get_p99_ns", layer[kGet].at(0.99), "ns"});
    m.push_back({"store.put_p50_ns", layer[kPut].at(0.50), "ns"});
    m.push_back({"store.put_p99_ns", layer[kPut].at(0.99), "ns"});
    m.push_back({"store.insert_p50_ns", layer[kInsert].at(0.50), "ns"});
    m.push_back({"store.del_p50_ns", layer[kDel].at(0.50), "ns"});
    m.push_back({"store.del_p99_ns", layer[kDel].at(0.99), "ns"});
    m.push_back({"store.del_p999_ns", layer[kDel].at(0.999), "ns"});
    m.push_back({"store.scan_p50_ns", layer[kScan].at(0.50), "ns"});
    m.push_back({"store.scan_p99_ns", layer[kScan].at(0.99), "ns"});
    m.push_back({"store.busy_frac", store_busy, "ratio"});

    std::size_t buckets = 0;
    for (std::size_t i = 0; i < b.store->shards(); ++i) {
        buckets += b.store->shard(i).buckets();
    }
    m.push_back({"map.buckets", static_cast<double>(buckets), "count"});
    m.push_back({"map.keys_per_bucket",
                 ratio(static_cast<double>(b.store->size()),
                       static_cast<double>(buckets)),
                 "ratio"});

    m.push_back({"pipeline.submit_p50_ns", layer[kSubmit].at(0.50), "ns"});
    m.push_back({"pipeline.submit_p99_ns", layer[kSubmit].at(0.99), "ns"});
    m.push_back({"pipeline.wait_p50_us", layer[kWait].at(0.50) / 1e3, "us"});
    m.push_back({"pipeline.wait_p99_us", layer[kWait].at(0.99) / 1e3, "us"});
    m.push_back({"pipeline.service_p50_ns", layer[kService].at(0.50), "ns"});
    m.push_back({"pipeline.service_p99_ns", layer[kService].at(0.99), "ns"});
    m.push_back({"pipeline.gap_p50_ns", layer[kGap].at(0.50), "ns"});
    m.push_back({"pipeline.gap_p99_ns", layer[kGap].at(0.99), "ns"});
    m.push_back({"pipeline.backlog_max", static_cast<double>(backlog_max),
                 "count"});
    m.push_back({"pipeline.drainer_busy_frac", b.piped() ? store_busy : 0.0,
                 "ratio"});
    m.push_back({"pipeline.late_p99_us", layer[kLate].at(0.99) / 1e3, "us"});

    m.push_back({"reclaim.ebr_pending_max",
                 static_cast<double>(o.ebr_pending_max), "count"});
    m.push_back({"reclaim.hp_pending_max",
                 static_cast<double>(o.hp_pending_max), "count"});

    // Library counters, as deltas over the measured windows.
    const auto d = [&o](const char* name) {
        const auto at = [name](const auto& c) {
            const auto it = c.find(name);
            return it == c.end() ? 0.0 : static_cast<double>(it->second);
        };
        return at(o.counters1) - at(o.counters0);
    };
    m.push_back({"tamp.kv.cas_retries_per_write",
                 ratio(d("kv.cas_retries"), d("kv.puts") + d("kv.dels")),
                 "ratio"});
    m.push_back({"tamp.kv.scan_retries_per_scan",
                 ratio(d("kv.scan_retries"), d("kv.scans")), "ratio"});
    m.push_back({"tamp.kv.resizes", d("kv.resizes"), "count"});
    m.push_back({"tamp.kv.sentinel_installs", d("kv.sentinel_installs"),
                 "count"});
    m.push_back({"tamp.epoch.collects", d("epoch.collects"), "count"});
    m.push_back({"tamp.epoch.freed_per_retired",
                 ratio(d("epoch.freed"), d("epoch.retired")), "ratio"});
    m.push_back({"tamp.msq.enq_retries_per_submit",
                 ratio(d("msq.enq_retries"),
                       static_cast<double>(o.submitted1 - o.submitted0)),
                 "ratio"});
    m.push_back({"tamp.hp.scans", d("hp.scans"), "count"});
    m.push_back({"tamp.backoff.units", d("backoff.units"), "count"});
}

/// Mean self time of each span kind.  A span's self time is its duration
/// less the part its children cover; only `request` has children (submit,
/// lane_wait, service, which tile it), so its self time is how late the
/// generator ran.  For the pipelines this is also the latency budget: the
/// parts' means must add up to the mean sojourn (due -> service end, as
/// carried through the pipeline).  Returns the budget's error in percent.
double add_span_summary(const Bench& b, const std::vector<Request>& rs,
                        Metrics& m) {
    if (!b.piped()) {
        double sum = 0;
        std::size_t n = 0;
        for (const auto& r : b.clients) {
            for (const Span& s : r->spans) {
                sum += static_cast<double>(s.end - s.begin);
                ++n;
            }
        }
        m.push_back({"trace.self.op_ns", ratio(sum, n), "ns"});
        return 0.0;
    }
    double late = 0, submit = 0, lane = 0, service = 0, sojourn = 0;
    for (const Request& r : rs) {
        late += static_cast<double>(r.submit.begin - r.submit.due);
        submit += static_cast<double>(r.submit.end - r.submit.begin);
        lane += static_cast<double>(r.service.begin - r.submit.end);
        service += static_cast<double>(r.service.end - r.service.begin);
        sojourn += static_cast<double>(r.service.end - r.service.due);
    }
    const double n = static_cast<double>(rs.size());
    const double parts = ratio(late + submit + lane + service, n);
    m.push_back({"trace.self.request_ns", ratio(late, n), "ns"});
    m.push_back({"trace.self.submit_ns", ratio(submit, n), "ns"});
    m.push_back({"trace.self.lane_wait_ns", ratio(lane, n), "ns"});
    m.push_back({"trace.self.service_ns", ratio(service, n), "ns"});
    m.push_back({"budget.parts_ns", parts, "ns"});
    m.push_back({"budget.sojourn_ns", ratio(sojourn, n), "ns"});
    m.push_back({"budget.requests", n, "count"});
    const double err =
        rs.empty() ? 100.0
                   : 100.0 * std::fabs(parts - sojourn / n) / (sojourn / n);
    m.push_back({"budget.error_pct", err, "%"});
    return err;
}

/// Chrome trace JSON (chrome://tracing or ui.perfetto.dev).  Closed loops:
/// `op` slices per client thread.  Pipelines: per sampled request an async
/// `request` span (due -> service end) holding an async `lane_wait`, with
/// `submit` and `service` slices on the generator and drainer threads; all
/// carry the request id.
void write_trace(const char* path, const Bench& b,
                 const std::vector<Request>& requests) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) die("cannot open the trace file");
    const auto us = [&](std::int64_t t) {
        return static_cast<double>(t - b.tl.launch) / 1e3;
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    const char* sep = "";
    const auto thread_name = [&](int tid, const std::string& name) {
        std::fprintf(f, "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                        "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     sep, tid, name.c_str());
        sep = ",\n";
    };
    const auto slice = [&](const char* name, int tid, const Span& s,
                           const char* kind) {
        std::fprintf(f, "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,"
                        "\"ts\":%.3f,\"dur\":%.3f,"
                        "\"args\":{\"id\":%llu%s%s%s}}",
                     sep, name, tid, us(s.begin), us(s.end) - us(s.begin),
                     static_cast<unsigned long long>(s.id),
                     kind ? ",\"kind\":\"" : "", kind ? kind : "",
                     kind ? "\"" : "");
        sep = ",\n";
    };
    const auto async = [&](const char* name, char ph, std::int64_t t,
                           std::uint64_t id) {
        std::fprintf(f, "%s{\"ph\":\"%c\",\"cat\":\"request\",\"name\":\"%s\","
                        "\"pid\":1,\"tid\":0,\"id\":%llu,\"ts\":%.3f}",
                     sep, ph, name, static_cast<unsigned long long>(id), us(t));
        sep = ",\n";
    };
    static constexpr const char* kKind[] = {"get", "put", "insert", "del",
                                            "scan"};
    if (!b.piped()) {
        for (int c = 0; c < kClients; ++c) {
            thread_name(c + 1, "client " + std::to_string(c));
            for (const Span& s : b.clients[c]->spans) {
                slice("op", c + 1, s, kKind[s.kind]);  // id: call index
            }
        }
    } else {
        thread_name(1, "generator");
        for (int d = 0; d <= kDrainers; ++d) {
            thread_name(d + 2, "drainer " + std::to_string(d));
        }
        for (const Request& r : requests) {
            const std::uint64_t id = r.submit.id;
            async("request", 'b', r.submit.due, id);
            slice("submit", 1, r.submit, nullptr);
            async("lane_wait", 'b', r.submit.end, id);
            async("lane_wait", 'e', r.service.begin, id);
            slice("service", 2 + r.drainer, r.service, nullptr);
            async("request", 'e', r.service.end, id);
        }
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) die("cannot write the trace file");
}

int run(const Spec& spec, std::uint64_t seed, double seconds,
        const char* trace_out) {
    Bench b(spec, seed);
    bool correct = true;

    std::vector<double> setups;
    for (int rep = 0; rep < kSetups; ++rep) {
        b.rig.reset();  // tear-down is not set-up time
        b.store.reset();
        const std::int64_t t0 = now_ns();
        if (!b.set_up()) correct = false;
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    b.tl.launch = now_ns();
    b.tl.start = b.tl.launch + kWarmupNs;
    b.tl.window = static_cast<std::int64_t>(seconds * 1e9 / kWindows);

    std::vector<std::thread> threads;
    if (b.piped()) {
        threads.emplace_back([&b] { b.generate(); });
    } else {
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&b, c] { b.client(c); });
        }
    }

    // At each window boundary: the completed-op count.
    std::vector<std::uint64_t> done(kWindows + 1);
    std::vector<std::int64_t> at(kWindows + 1);
    Observed o;
    for (int k = 0; k <= kWindows; ++k) {
        const std::int64_t until = b.tl.boundary(k);
        if (kTraced && k > 0) {
            for (std::int64_t t = now_ns(); t < until; t = now_ns()) {
                o.ebr_pending_max = std::max(o.ebr_pending_max,
                                             tamp::reclaim::ebr::pending());
                o.hp_pending_max = std::max(o.hp_pending_max,
                                            tamp::reclaim::hp::pending());
                std::this_thread::sleep_for(std::chrono::nanoseconds(
                    std::min(kPendingPeriodNs, until - t)));
            }
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::max<std::int64_t>(0, until - now_ns())));
        done[k] = b.completed_ops();
        at[k] = now_ns();
        if (k == 0 || k == kWindows) {
            const std::uint64_t sub = b.piped() ? b.rig->pipe.submitted() : 0;
            (k == 0 ? o.submitted0 : o.submitted1) = sub;
            if (kTraced) (k == 0 ? o.counters0 : o.counters1) = counters();
        }
    }
    b.stop.store(true);
    for (auto& t : threads) t.join();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);  // before the report allocates

    // Final checks.
    std::uint64_t attempted = 0, failed = 0, inserts = 0, deletes = 0;
    const auto tally = [&](const Recorder& r) {
        failed += r.failed;
        inserts += r.inserts;
        deletes += r.deletes;
    };
    for (const auto& r : b.clients) tally(*r);
    for (const auto& r : b.drainers) tally(*r);
    tally(*b.generator);
    if (b.piped()) {
        Pipe& pipe = b.rig->pipe;
        pipe.drain();
        attempted = b.generator->ops.load();
        if (pipe.completed() != pipe.submitted()) correct = false;
        if (pipe.submitted() + b.generator->failed != attempted) {
            correct = false;
        }
    } else {
        attempted = b.completed_ops();
    }
    if (b.store->size() != spec.keys + inserts - deletes) correct = false;
    if (failed != 0) correct = false;

    // End to end: the median over the windows.
    Metrics m;
    std::vector<double> tput, p50, p99;
    std::uint64_t samples = 0;
    for (int w = 0; w < kWindows; ++w) {
        tput.push_back(static_cast<double>(done[w + 1] - done[w]) * 1e9 /
                       static_cast<double>(at[w + 1] - at[w]));
        Quantiles q;
        for (const auto* group : {&b.clients, &b.drainers}) {
            for (const auto& r : *group) q.add(r->latency[w]);
        }
        samples += q.seen();
        p50.push_back(q.at(0.50) / 1e3);
        p99.push_back(q.at(0.99) / 1e3);
    }
    m.push_back({"throughput_ops_s", median(tput), "ops/s"});
    m.push_back({"latency_p50_us", median(p50), "us"});
    m.push_back({"latency_p99_us", median(p99), "us"});
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                 "MB"});
    m.push_back({"error_rate", ratio(static_cast<double>(failed),
                                     static_cast<double>(attempted)),
                 "ratio"});
    m.push_back({"latency_samples", static_cast<double>(samples), "count"});

    if constexpr (kTraced) {
        add_per_layer(b, o, m);
        const std::vector<Request> requests = join_requests(b);
        const double budget_err = add_span_summary(b, requests, m);
        if (spec.loop == Loop::kOpen && budget_err > 2.0) correct = false;
        write_trace(trace_out, b, requests);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::printf("%s\"%s\": [%.17g, \"%s\"]", i ? ", " : "",
                    m[i].name.c_str(), m[i].value, m[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const char* workload = nullptr;
    const char* trace_out = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        if (flag == "--workload") {
            workload = argv[i + 1];
        } else if (flag == "--seed") {
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(argv[i + 1], nullptr);
        } else if (flag == "--trace-out") {
            trace_out = argv[i + 1];
        } else {
            die("unknown flag");
        }
    }
    if (argc % 2 == 0 || workload == nullptr || !(seconds > 0)) {
        die("usage: kv_bench --workload NAME --seed N --seconds S "
            "[--trace-out FILE]");
    }
    if (kTraced && trace_out == nullptr) {
        die("the traced build needs --trace-out");
    }
    for (const Spec& s : kSpecs) {
        if (workload == std::string_view(s.name)) {
            return run(s, seed, seconds, trace_out);
        }
    }
    die("unknown workload");
}
