// Concurrency contract of qoc::PulseLibrary:
//
//   * single-flight: N threads missing on the same phase-equivalence class
//     run exactly one GRAPE latency search (misses == #classes, always);
//   * consistent stats: every lookup is counted exactly once, as hit or miss;
//   * no lost entries: every class ends up in the table exactly once;
//   * reference stability: a result handed out before the table grows past
//     its load factor (rehash!) must stay valid and unchanged -- the
//     historical API returned a reference into the unordered_map, which a
//     concurrent rehash could dangle;
//   * waiter retry (util::ShardedFlightCache): a waiter with budget left
//     never ships a value another caller's dying leader degraded.
#include "qoc/pulse_library.h"

#include "circuit/gate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace epoc::qoc;
using epoc::linalg::Matrix;
using epoc::util::Deadline;
using epoc::util::ShardedFlightCache;

/// Cheap search settings: one GRAPE attempt usually clears the bar, so the
/// hammer spends its time in the cache, not in the optimizer.
LatencySearchOptions cheap_search() {
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.5;
    opt.max_slots = 8;
    opt.grape.max_iterations = 25;
    return opt;
}

/// Member k of phase-equivalence class `cls`: RZ(0.1 + 0.37*cls) times a
/// global phase that varies with k. Phase-aware lookup must collapse all k
/// onto one entry.
Matrix class_member(int cls, int k) {
    Matrix u = epoc::circuit::kind_matrix(epoc::circuit::GateKind::RZ,
                                          {0.1 + 0.37 * cls});
    u *= std::polar(1.0, 0.211 * k);
    return u;
}

TEST(PulseLibraryConcurrent, SingleFlightPerEquivalenceClass) {
    const int kClasses = 6;
    const int kThreads = 8;
    const int kLookupsPerThread = 3 * kClasses;

    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    std::atomic<int> start_gate{kThreads};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Rendezvous so all threads hit the cold cache together -- the
            // worst case for single-flight.
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            for (int i = 0; i < kLookupsPerThread; ++i) {
                const int cls = (i + t) % kClasses; // staggered overlap
                const auto r = lib.get_or_generate(h, class_member(cls, t), opt);
                if (r == nullptr || r->pulse.num_slots() <= 0)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0u);
    // Exactly one generation per class, no matter how the threads raced.
    EXPECT_EQ(lib.stats().misses, static_cast<std::size_t>(kClasses));
    EXPECT_EQ(lib.size(), static_cast<std::size_t>(kClasses));
    // Every lookup is counted exactly once.
    EXPECT_EQ(lib.stats().hits + lib.stats().misses,
              static_cast<std::size_t>(kThreads * kLookupsPerThread));
    // Waiters are a subset of hits.
    EXPECT_LE(lib.stats().single_flight_waits, lib.stats().hits);
}

TEST(PulseLibraryConcurrent, AllThreadsSeeTheSamePulse) {
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    const int kThreads = 8;
    std::vector<std::shared_ptr<const LatencyResult>> results(kThreads);
    std::atomic<int> start_gate{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            results[t] = lib.get_or_generate(h, class_member(0, t), opt);
        });
    }
    for (std::thread& th : threads) th.join();

    // Single-flight means one shared immutable entry: all pointers identical.
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
    EXPECT_EQ(lib.stats().misses, 1u);
}

TEST(PulseLibraryConcurrent, ResultsSurviveRehash) {
    // Regression: hold the first result, then insert far past any load
    // factor. With the old reference-into-unordered_map API the rehash could
    // move the buckets out from under the caller; the shared_ptr API pins
    // the entry regardless of table growth.
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    const auto held = lib.get_or_generate(h, class_member(0, 0), opt);
    const double held_duration = held->pulse.duration();
    const double held_fidelity = held->pulse.fidelity;

    const int kInsertions = 200; // >> 16 shards * default bucket counts
    for (int cls = 1; cls <= kInsertions; ++cls)
        lib.get_or_generate(h, class_member(cls, 0), opt);
    ASSERT_EQ(lib.size(), static_cast<std::size_t>(kInsertions) + 1);

    // The held entry is bit-identical and still the canonical one.
    EXPECT_EQ(held->pulse.duration(), held_duration);
    EXPECT_EQ(held->pulse.fidelity, held_fidelity);
    const auto again = lib.get_or_generate(h, class_member(0, 1), opt);
    EXPECT_EQ(again, held); // same shared entry, not a regenerated copy
}

TEST(PulseLibraryConcurrent, ConcurrentInsertsLoseNothing) {
    // Distinct keys from every thread: all must land, none overwritten.
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    const int kThreads = 6;
    const int kPerThread = 20;
    std::atomic<int> start_gate{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i)
                lib.get_or_generate(h, class_member(t * kPerThread + i, 0), opt);
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(lib.size(), static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(lib.stats().misses, static_cast<std::size_t>(kThreads * kPerThread));
    // Each thread's lookups were all distinct keys it inserted itself, so
    // hits can only come from cross-thread overlap -- there is none here.
    EXPECT_EQ(lib.stats().hits, 0u);
}

TEST(PulseLibraryConcurrent, PeekNeverBlocksOrGenerates) {
    PulseLibrary lib(true);
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    EXPECT_EQ(lib.peek(h, epoc::circuit::hadamard(), opt), nullptr);
    lib.get_or_generate(h, epoc::circuit::hadamard(), opt);
    const auto p = lib.peek(h, epoc::circuit::hadamard(), opt);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->pulse.num_slots(), 0);
    EXPECT_EQ(lib.stats().hits, 0u); // peek leaves the stats alone
}

// --- Waiter retry -----------------------------------------------------------
//
// The cases below are deterministic on any core count: every hand-off waits
// on the cache's own `waits` counter, which a waiter bumps while holding the
// slot lock it then sleeps on, so a leader released after the bump always
// publishes to a blocked waiter. Every spin gives up after a generous bound,
// so a broken policy fails its test instead of hanging it.

using IntCache = ShardedFlightCache<int>;

bool positive(const int& v) { return v > 0; }

bool spin_until(const std::function<bool()>& done) {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > give_up) return false;
        std::this_thread::yield();
    }
    return true;
}

bool await_waits(const IntCache& cache, std::size_t n) {
    return spin_until([&] { return cache.stats().waits >= n; });
}

/// A leader on `key` whose make() blocks until `release` is set, then
/// returns `value` (or throws when `value` is 0). Its thread holds `this`,
/// so it is neither copied nor moved (the atomics see to that), and it is
/// released and joined on every exit path.
struct HeldLeader {
    std::atomic<bool> in_make{false};
    std::atomic<bool> release{false};
    std::shared_ptr<const int> got;
    bool threw = false;
    std::thread thread;

    ~HeldLeader() {
        release = true;
        if (thread.joinable()) thread.join();
    }

    void start(IntCache& cache, const std::string& key, int value,
               const Deadline* deadline) {
        thread = std::thread([this, &cache, key, value, deadline] {
            try {
                got = cache.get_or_compute(
                    key,
                    [this, value] {
                        in_make = true;
                        while (!release) std::this_thread::yield();
                        if (value == 0) throw std::runtime_error("leader died");
                        return value;
                    },
                    positive, deadline);
            } catch (const std::runtime_error&) {
                threw = true;
            }
        });
        spin_until([this] { return in_make.load(); });
    }
};

TEST(WaiterRetry, LiveWaiterRecomputesAnInheritedDegradedValue) {
    IntCache cache;
    const Deadline live; // never expires
    HeldLeader leader;
    leader.start(cache, "k", -1, &live);

    int retries = 0;
    std::thread release([&] {
        await_waits(cache, 1);
        leader.release = true;
    });
    const auto got = cache.get_or_compute(
        "k", [] { return 7; }, positive, &live, [&] { ++retries; });
    release.join();
    leader.thread.join();

    EXPECT_EQ(*got, 7);         // recomputed, not inherited
    EXPECT_EQ(*leader.got, -1); // the leader always gets its own value
    EXPECT_EQ(retries, 1);
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.waits, 1u);
    EXPECT_EQ(s.uncacheable, 1u);
    EXPECT_EQ(*cache.peek("k"), 7); // the clean value is the cached one
}

TEST(WaiterRetry, ExpiredWaiterShipsTheInheritedValue) {
    IntCache cache;
    const Deadline live;
    const Deadline spent = Deadline::after_ms(0.0);
    HeldLeader leader;
    leader.start(cache, "k", -1, &live);

    int retries = 0;
    bool waiter_made = false;
    std::thread release([&] {
        await_waits(cache, 1);
        leader.release = true;
    });
    const auto got = cache.get_or_compute(
        "k",
        [&] {
            waiter_made = true;
            return 7;
        },
        positive, &spent, [&] { ++retries; });
    release.join();
    leader.thread.join();

    EXPECT_EQ(*got, -1); // no budget to re-attempt: ship what we inherited
    EXPECT_EQ(got, leader.got);
    EXPECT_FALSE(waiter_made);
    EXPECT_EQ(retries, 0);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(WaiterRetry, LeaderGetsItsOwnUncacheableValue) {
    IntCache cache;
    const Deadline live;
    int retries = 0;
    const auto got =
        cache.get_or_compute("k", [] { return -3; }, positive, &live, [&] { ++retries; });
    EXPECT_EQ(*got, -3);
    EXPECT_EQ(retries, 0);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().uncacheable, 1u);
    EXPECT_EQ(cache.peek("k"), nullptr); // evicted all the same
}

TEST(WaiterRetry, ReentryStopsAfterThreeDyingLeaders) {
    // Leader k blocks until the waiter sleeps on its slot, then the test
    // orphans that slot, starts leader k+1 on a fresh one and only then lets
    // leader k die. The waiter re-enters onto each next leader, and after
    // kWaiterRetries re-entries ships the last leader's degraded value.
    constexpr int kLeaders = IntCache::kWaiterRetries + 1;
    IntCache cache;
    const Deadline live;
    std::vector<HeldLeader> leaders(kLeaders);
    leaders[0].start(cache, "k", -1, &live);

    std::atomic<int> retries{0};
    bool waiter_made = false;
    std::shared_ptr<const int> got;
    std::thread waiter([&] {
        got = cache.get_or_compute(
            "k",
            [&] {
                waiter_made = true;
                return 7;
            },
            positive, &live, [&] { ++retries; });
    });
    for (int k = 0; k < kLeaders; ++k) {
        const bool queued = await_waits(cache, static_cast<std::size_t>(k + 1));
        EXPECT_TRUE(queued) << "no waiter queued behind leader " << k + 1;
        if (queued && k + 1 < kLeaders) {
            cache.erase("k");
            leaders[k + 1].start(cache, "k", -(k + 2), &live);
        }
        leaders[k].release = true;
        if (!queued) break;
    }
    waiter.join();
    for (HeldLeader& l : leaders)
        if (l.thread.joinable()) l.thread.join();

    ASSERT_EQ(retries.load(), IntCache::kWaiterRetries);
    EXPECT_FALSE(waiter_made);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, -kLeaders);
    for (int k = 0; k < kLeaders; ++k) EXPECT_EQ(*leaders[k].got, -(k + 1));
    EXPECT_EQ(cache.stats().waits, static_cast<std::size_t>(kLeaders));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(WaiterRetry, ThrowingLeaderStillReachesItsWaiters) {
    IntCache cache;
    const Deadline live;
    HeldLeader leader;
    leader.start(cache, "k", 0, &live); // value 0: make() throws

    int retries = 0;
    bool waiter_made = false;
    std::thread release([&] {
        await_waits(cache, 1);
        leader.release = true;
    });
    EXPECT_THROW(cache.get_or_compute(
                     "k",
                     [&] {
                         waiter_made = true;
                         return 7;
                     },
                     positive, &live, [&] { ++retries; }),
                 std::runtime_error);
    release.join();
    leader.thread.join();

    EXPECT_TRUE(leader.threw);
    EXPECT_FALSE(waiter_made);
    EXPECT_EQ(retries, 0);
    // The failed slot is gone: the next lookup recomputes.
    EXPECT_EQ(*cache.get_or_compute("k", [] { return 5; }, positive), 5);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(WaiterRetry, CallersWithoutADeadlineKeepTheInheritedValue) {
    // PlanCache and the verify layer's recompute call without a deadline:
    // a waiter then ships the inherited value exactly as before the retry
    // policy existed, and compare-and-evict still sees the evicted entry.
    IntCache cache;
    HeldLeader leader;
    leader.start(cache, "k", -1, nullptr);

    bool waiter_made = false;
    std::thread release([&] {
        await_waits(cache, 1);
        leader.release = true;
    });
    const auto got = cache.get_or_compute(
        "k",
        [&] {
            waiter_made = true;
            return 7;
        },
        positive);
    release.join();
    leader.thread.join();

    EXPECT_EQ(got, leader.got);
    EXPECT_FALSE(waiter_made);
    EXPECT_FALSE(cache.erase_if("k", got)); // the leader already evicted it
    EXPECT_EQ(*cache.get_or_compute("k", [] { return 9; }, positive), 9);
}

/// An L2 tier whose first probe holds the leader inside its single-flight
/// slot until a waiter has queued behind it; every probe misses.
class HoldingTier : public PulseTier {
public:
    explicit HoldingTier(const PulseLibrary& lib) : lib_(lib) {}
    std::optional<LatencyResult> load(const std::string&, bool*) override {
        if (probes_.fetch_add(1) == 0)
            spin_until([this] { return lib_.stats().single_flight_waits >= 1; });
        return std::nullopt;
    }
    void store(const std::string&, const LatencyResult&) override {}

private:
    const PulseLibrary& lib_;
    std::atomic<int> probes_{0};
};

TEST(WaiterRetry, PulseLibraryWaiterRegeneratesADeadLeadersPulse) {
    // The leader's budget is already spent, so its search comes back timed
    // out; the waiter (no deadline: an intact budget) must not ship that, but
    // re-enter, regenerate an authoritative pulse and count the re-entry.
    const auto h = make_block_hamiltonian(1);
    epoc::util::Tracer tracer(true);
    PulseLibrary lib(true);
    HoldingTier tier(lib);
    lib.set_tracer(&tracer);
    lib.set_store(&tier);

    const Deadline spent = Deadline::after_ms(0.0);
    LatencySearchOptions dying = cheap_search();
    dying.deadline = &spent;
    std::shared_ptr<const LatencyResult> leader_got;
    std::thread leader(
        [&] { leader_got = lib.get_or_generate(h, class_member(0, 0), dying); });
    EXPECT_TRUE(spin_until([&] { return lib.stats().misses >= 1; }));
    const auto got = lib.get_or_generate(h, class_member(0, 1), cheap_search());
    leader.join();

    EXPECT_TRUE(leader_got->timed_out);
    EXPECT_TRUE(got->authoritative());
    EXPECT_EQ(lib.stats().misses, 2u);
    EXPECT_EQ(lib.stats().uncached_degraded, 1u);
    std::uint64_t waiter_retries = 0;
    for (const auto& [name, value] : tracer.report().counters)
        if (name == "qoc.waiter_retries") waiter_retries = value;
    EXPECT_EQ(waiter_retries, 1u);
}

} // namespace
