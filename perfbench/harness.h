// Shared plumbing of the EPOC benchmark harness: run configuration, timing and
// percentile helpers, the metric sink that becomes the result line, and the
// correctness gate every workload reports into.
#pragma once

#include "circuit/circuit.h"
#include "epoc/pipeline.h"
#include "util/trace.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Worker counts fixed for every workload (clamped to the host's cores). On
/// the 4-vCPU host the benchmark was tuned on, each vCPU's speed swung by up
/// to ~1.7x within seconds, independently of the others, so one busy thread
/// measured whichever vCPU it ran on. Run-to-run spread (IQR/median over 5-10
/// seeds) of fig9-cold's compile_s was 0.21-0.35 single-threaded and
/// 0.08-0.15 with three replicas side by side; service-hot with 3 executors
/// and 3 clients spread about half as much as with 2 in a same-length
/// comparison, and 1 of each spread more. What remains is the whole host
/// speeding up or slowing down over minutes. A cold fig9 pass at 2 compiler
/// threads was no faster than at 1 (one block sets the pass) and its
/// schedules did not repeat bit for bit (see check_repeat()), so every timed
/// compile runs at 1 thread; the traced run repeats the pack pass and the plan
/// sweep at `check_threads` and compares every work count.
struct Config {
    int threads = 1;       ///< EpocOptions::num_threads of every timed compile
    int check_threads = 2; ///< thread count of the traced determinism re-run
    int replicas = 3;      ///< fig9-cold cold passes run side by side
    int executors = 3;     ///< DaemonOptions::num_executors (service-hot)
    int clients = 3;       ///< closed-loop client threads (service-hot)
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    fs::path work_dir; ///< scratch space, created and removed by the harness
    Config cfg;
};

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Ordered metric sink; the names and units are the benchmark's contract.
class Metrics {
public:
    void put(const std::string& name, double value, const std::string& unit);
    std::string json() const;
    /// Human-readable table for stderr.
    std::string table() const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> index_;
};

/// Correctness gate: every compile request and every invariant the harness
/// checks is one attempt; any failure makes the run exit nonzero.
/// Thread-safe: fig9-cold's replicas and service-hot's clients report into
/// one gate.
class Gate {
public:
    void attempt(bool ok, const std::string& what);
    std::uint64_t attempted() const;
    std::uint64_t failed() const;

private:
    mutable std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// FNV-1a of the schedule's JSON export: the per-circuit output digest.
std::uint64_t schedule_digest(const epoc::core::EpocResult& r);

/// Phase-invariant distance sqrt(1 - |tr(A^dag B)| / d) between the unitaries
/// of two circuits, both evaluated with circuit::circuit_unitary.
double unitary_distance(const epoc::circuit::Circuit& a, const epoc::circuit::Circuit& b);

/// Largest unitary_distance accepted between a compile's input and its
/// EpocResult::synthesized circuit: QSearch's per-block acceptance threshold
/// (qsearch.threshold = 1e-4 in every workload, same distance). The largest
/// distance measured over all four workloads is ~3e-8.
inline constexpr double kUnitaryTolerance = 1e-4;

/// Deterministic work counts of one compile sequence: cache and store misses
/// and writes, plus (traced passes only, keys "trace:<name>") the tracer's
/// counters minus the timing-dependent ones.
struct WorkCounts {
    std::map<std::string, std::uint64_t> counts;
    bool operator==(const WorkCounts& o) const { return counts == o.counts; }
    std::string diff(const WorkCounts& o) const;
};

/// Counts read from a result's cumulative cache/store stats (always
/// available) and, when traced, its deterministic tracer counters.
WorkCounts work_counts(const epoc::core::EpocResult& r);

/// Sum and maximum of span durations (ms) whose name starts with a prefix.
struct SpanStats {
    double sum_ms = 0.0;
    double max_ms = 0.0;
};
SpanStats span_stats(const epoc::util::TraceReport& t,
                     const std::vector<std::string>& prefixes);

double peak_rss_mb();

} // namespace perfbench
