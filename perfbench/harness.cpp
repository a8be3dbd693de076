// EPOC benchmark harness: one process runs one workload for a fixed time,
// checks its outputs, and prints one JSON result line (see run.py, which
// builds this binary and owns the metric contract in BENCHMARK.json).
//
//   epoc_perfbench --workload W --seed N --seconds S --trace 0|1 --work-dir D
//
// Workloads (worker counts fixed by Config, each clamped to the host's cores):
//   fig9-cold   Paper Fig. 9 grouped arm: a fresh compiler with an empty pulse
//               store compiles the fixed circuit list in order, at 1 thread;
//               Config::replicas such passes run side by side, each on its own
//               compilers and store. GRAPE and QSearch share the time; the
//               store only sees writes. Its traced run (one replica) also
//               measures two layers that have no workload of their own: the
//               pack pass (the store folded into a pack and the list compiled
//               again from it: zero GRAPE, every pack hit re-simulated by the
//               verifier, nearly all QSearch) and the plan cache
//               (bench_variational sweep 1: one plan build, then plan hits
//               along a seeded smooth angle walk).
//   service-hot In-process epocd warmed with the bench_service soak set,
//               driven closed-loop by `clients` threads with one job each
//               outstanding. Every job hits both caches: the time goes to the
//               service, QASM parse, ZX, partition, regroup, library lookups
//               and scheduling. GRAPE and QSearch are bypassed.
// On the 4-vCPU host the benchmark was tuned on, each vCPU's speed swung by up
// to ~1.7x within seconds, independently of the others (thread CPU time swung
// with the wall: contention from other tenants of the host's cores, not
// preemption). One busy thread measures whichever vCPU it runs on, so both
// workloads keep three threads of work going and pool their samples (see
// Config). The run budget holds two workloads at 40 s; the pack pass and the
// plan sweep therefore ride in fig9-cold's traced run.
//
// End-to-end metrics (--trace 0) are measured with tracing off, every one on
// every workload. The timed part of a run is cut into windows: one pass over
// the circuit list (fig9-cold) or kJobsPerWindow consecutive job completions
// (service-hot). Each time below is computed per window and the run reports
// its median over the windows, so a host stall shorter than half the run does
// not move it.
//   setup_s          median set-up time: one compiler construction (store
//                    open included) on fig9-cold; daemon start plus the
//                    warm-up compile of the soak set on service-hot
//   compile_s        wall of one window (fig9-cold: one replica's pass, while
//                    the other replicas run theirs)
//   jobs_per_s       compile requests completed per second of window wall
//   job_ms_p50/p90   one job as its submitter sees it: a pass over the list
//                    (fig9-cold, the paper's unit of work), a client round
//                    trip (service-hot)
//   iter_ms_p50/p90  compiler-side time of one job: the summed
//                    EpocResult::compile_ms of a pass (fig9-cold), the
//                    daemon-reported compile_ms of a job (service-hot)
//   pulse_latency_dt summed schedule latency of the workload's distinct
//                    requests, in device samples (dt = 2 ns): output quality
//   esp_geomean      geometric-mean ESP of the same outputs
//   peak_rss_mb      peak resident set of the process
// Medians are conventional (mean of the middle two for an even count); p90
// is nearest-rank. The tail is gated at p90, not p99: on the 4-vCPU host the
// benchmark was tuned on, host-side stalls moved the p99 of millisecond
// requests by up to 3x between runs of the same seed, more than any bound
// allows. The service p99s are reported by the traced run
// (service.job_ms_p99, service.compile_ms_p99).
//
// The traced run (--trace 1) re-runs the workload with the tracer on, reads
// the spans and counters the compiler exposes, times the harness's own calls
// into module APIs (parse_qasm, zx_optimize, greedy_partition,
// qsearch_synthesize, PulseStore, write_pack/PackReader, service
// encode/decode), runs the kernel sheet, and reports the tracing overhead as
// traced minus untraced pass time. Layers a workload does not exercise are
// absent (run.py reports them as 0).
//
// How the layers combine into the end-to-end numbers:
//   * With nothing contending, a layer saves at most its share of the
//     blocking path. fig9-cold compiles at 1 thread, so every block is on
//     that path and the qoc.busy_ms and synthesis.busy_ms sums make up most
//     of compile_s (pool.utilization ~1). With more threads the slowest block
//     of a circuit would set its time instead (qoc.max_block_ms,
//     synthesis.max_block_ms): qaoa4's one 3-qubit QSearch block is ~2.9 s of
//     its ~3.7 s, which is why 2 threads were no faster than 1.
//   * On service-hot, executor and queue contention shows first in
//     service.overhead_ms_p99 (queue wait + frames + parse), before
//     jobs_per_s stops rising.
//   * The pack pass bypasses GRAPE and pays verify.resim_ms instead
//     (pack.compile_s against compile_s); service-hot bypasses GRAPE and
//     QSearch. Only the plan sweep exercises the plan cache and warm-start
//     GRAPE (plan.*, qoc.warm_starts); no end-to-end metric covers it.
//
// Correctness gate (any failure -> "correct": false and exit code 1):
//   * every compile is ok and not degraded, and its EpocResult::synthesized
//     equals the input circuit's unitary up to global phase (both evaluated
//     with circuit::circuit_unitary, tolerance kUnitaryTolerance);
//   * the pack pass's per-circuit schedule digests equal the cold pass's, and
//     every service-hot response digest equals a library-mode compile's;
//   * schedule digests and deterministic work counts repeat exactly between
//     passes at the configured thread count (1), and work counts also between
//     1 thread and Config::check_threads on the pack pass and the plan sweep;
//   * the pack pass and service-hot run zero GRAPE; service-hot misses no
//     cache.
#include "harness.h"
#include "kernels.h"

#include "bench_circuits/generators.h"
#include "circuit/qasm.h"
#include "linalg/phase.h"
#include "partition/partition.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "store/pack.h"
#include "store/pulse_store.h"
#include "synthesis/qsearch.h"
#include "zx/optimize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>

namespace perfbench {
namespace {

using namespace epoc;

constexpr int kServiceSetupReps = 3; ///< daemon start + warm-up per run
/// service-hot window: consecutive job completions (~0.2 s on 4 vCPUs).
constexpr std::size_t kJobsPerWindow = 1000;
/// Jobs per client of service-hot's job stream that the library-mode twin
/// replays for the pipeline layers.
constexpr int kTwinJobsPerClient = 100;

// ---------------------------------------------------------------------------
// Workload definitions. Option sets are copied from the paper benches
// (suite_options(true), bench_service fast_options, bench_variational
// sweep 1) so that editing a bench does not silently move the benchmark.

/// The Fig. 9 circuits compiled by fig9-cold, in suite order. A
/// cold pass over all 17 figure_suite() circuits takes ~50 s on 4 cores, more
/// than one benchmark run may spend; these 5 (~5 s cold) keep both of its cost
/// classes: GRAPE-bound 2- and 3-qubit pulse blocks (ghz5, bell4, simon4,
/// bb84_5) and 3-qubit QSearch blocks (qaoa4, ~3 s of synthesis).
const std::vector<std::string> kFig9Circuits = {"ghz5", "bell4", "simon4", "bb84_5", "qaoa4"};

core::EpocOptions fig9_options(const Config& cfg) {
    core::EpocOptions opt;
    opt.regroup_enabled = true;
    opt.latency.fidelity_threshold = 0.993;
    opt.latency.grape.max_iterations = 150;
    opt.qsearch.threshold = 1e-4;
    opt.num_threads = cfg.threads;
    return opt;
}

core::EpocOptions service_options(const Config& cfg) {
    core::EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = cfg.threads;
    return opt;
}

core::EpocOptions vqe_options(const Config& cfg) {
    core::EpocOptions opt = service_options(cfg);
    opt.plan_cache = true;
    opt.plan_warm_start = true;
    opt.regroup_opt.max_qubits = 2;
    return opt;
}

struct Request {
    std::string name;
    circuit::Circuit circuit;
};

std::vector<Request> fig9_requests() {
    std::vector<Request> out;
    for (const std::string& want : kFig9Circuits)
        for (bench::NamedCircuit& nc : bench::figure_suite())
            if (nc.name == want) out.push_back({nc.name, std::move(nc.circuit)});
    return out;
}

/// bench_variational's hardware-efficient ansatz: parametric RY layers around
/// a fixed Toffoli + CX entangler.
circuit::Circuit vqe_ansatz(double a, double b) {
    circuit::Circuit c(3);
    c.ry(a, 0).ry(a + 0.1, 1).ry(a + 0.2, 2);
    c.ccx(0, 1, 2);
    c.cx(0, 1).cx(1, 2);
    c.ry(b, 0).ry(b + 0.1, 1).ry(b + 0.2, 2);
    return c;
}

/// One plan build followed by `hits` plan hits along a seeded smooth walk
/// around a fixed ellipse in (a, b), 1000 steps per lap, from a seeded
/// starting point.
std::vector<Request> vqe_requests(std::uint64_t seed, int hits) {
    constexpr double kTwoPi = 6.283185307179586;
    std::mt19937_64 rng(seed);
    const double start = kTwoPi * std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    std::vector<Request> out;
    for (int i = 0; i <= hits; ++i) {
        const double phase = start + kTwoPi * i / 1000.0;
        out.push_back({"vqe" + std::to_string(i),
                       vqe_ansatz(0.8 + 0.3 * std::sin(phase), 0.4 + 0.2 * std::cos(phase))});
    }
    return out;
}

std::vector<Request> service_soak_set() {
    return {{"ghz4", bench::ghz(4)},
            {"qft3", bench::qft(3)},
            {"bv5", bench::bv(5)},
            {"wstate4", bench::wstate(4)}};
}

// ---------------------------------------------------------------------------
// Outputs and end-to-end samples.

/// Output quality of a run: schedule latency and ESP of each distinct request
/// (by name; the first compile of a name counts), so repeated requests do not
/// weight the totals.
struct Quality {
    std::map<std::string, std::pair<double, double>> outputs; ///< latency_ns, esp
    void add(const std::string& request, double latency_ns, double esp) {
        outputs.emplace(request, std::make_pair(latency_ns, esp));
    }
};

/// One window of a run: a timed pass (library workloads) or a run of
/// consecutive jobs (service-hot). Every end-to-end time is computed per
/// window and reported as the median over the run's windows, so a host stall
/// shorter than half the run does not move it.
struct Window {
    double wall_s = 0.0;
    double requests = 0.0;
    double job_ms_p50 = 0.0; ///< per job, as its submitter sees it
    double job_ms_p90 = 0.0;
    double iter_ms_p50 = 0.0; ///< per job, compiler-side
    double iter_ms_p90 = 0.0;
};

struct E2E {
    std::vector<double> setup_s;
    std::vector<Window> windows;
    Quality quality;
};

void put_e2e(Metrics& m, const E2E& e) {
    // Every workload compiles for the default device model.
    const double dt = qoc::DeviceParams{}.dt;
    double latency_ns = 0.0, log_esp = 0.0;
    for (const auto& [request, le] : e.quality.outputs) {
        latency_ns += le.first;
        log_esp += std::log(std::max(le.second, 1e-300));
    }
    const double n = std::max<double>(1.0, static_cast<double>(e.quality.outputs.size()));
    const auto over_windows = [&](const std::function<double(const Window&)>& f) {
        std::vector<double> v;
        for (const Window& w : e.windows) v.push_back(f(w));
        return median(v);
    };
    m.put("setup_s", median(e.setup_s), "s");
    m.put("compile_s", over_windows([](const Window& w) { return w.wall_s; }), "s");
    m.put("jobs_per_s",
          over_windows([](const Window& w) { return w.requests / std::max(w.wall_s, 1e-9); }),
          "jobs/s");
    m.put("job_ms_p50", over_windows([](const Window& w) { return w.job_ms_p50; }), "ms");
    m.put("job_ms_p90", over_windows([](const Window& w) { return w.job_ms_p90; }), "ms");
    m.put("iter_ms_p50", over_windows([](const Window& w) { return w.iter_ms_p50; }), "ms");
    m.put("iter_ms_p90", over_windows([](const Window& w) { return w.iter_ms_p90; }), "ms");
    m.put("pulse_latency_dt", latency_ns / dt, "dt");
    m.put("esp_geomean", std::exp(log_esp / n), "ratio");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    std::vector<double> walls;
    for (const Window& w : e.windows) walls.push_back(w.wall_s);
    std::sort(walls.begin(), walls.end());
    std::fprintf(stderr,
                 "perfbench: %zu windows (wall min %.4f, median %.4f, max %.4f s), %zu setup "
                 "samples, %zu distinct outputs\n",
                 e.windows.size(), walls.empty() ? 0.0 : walls.front(), median(walls),
                 walls.empty() ? 0.0 : walls.back(), e.setup_s.size(), e.quality.outputs.size());
}

std::mutex g_distance_mutex;
double g_max_unitary_distance = 0.0; ///< guarded by g_distance_mutex

/// One request's result through the gate: ok, not degraded, and
/// unitary-equivalent to its input.
void check_result(Gate& gate, const Request& req, const core::EpocResult& r) {
    gate.attempt(r.status.ok() && !r.degraded, req.name + ": compile degraded or not ok (" +
                                                   r.status.detail + ")");
    const double dist = unitary_distance(req.circuit, r.synthesized);
    {
        const std::lock_guard<std::mutex> lock(g_distance_mutex);
        g_max_unitary_distance = std::max(g_max_unitary_distance, dist);
    }
    gate.attempt(dist <= kUnitaryTolerance,
                 req.name + ": synthesized unitary differs from input by " +
                     std::to_string(dist));
}

/// One pass of library-mode compiles on one compiler.
struct Pass {
    std::vector<core::EpocResult> results; ///< kept only when asked
    std::vector<double> call_ms;
    std::vector<double> compile_ms;
    std::vector<bool> plan_hit;
    std::vector<std::uint64_t> digests;
    std::vector<WorkCounts> counts; ///< cumulative, after each request
    double wall_s = 0.0;            ///< summed compile() calls
};

Pass run_pass(core::EpocCompiler& compiler, const std::vector<Request>& reqs, Gate& gate,
              Quality& quality, bool keep_results) {
    Pass p;
    for (const Request& req : reqs) {
        const auto t0 = Clock::now();
        core::EpocResult r = compiler.compile(req.circuit);
        const double ms = ms_since(t0);
        p.call_ms.push_back(ms);
        p.compile_ms.push_back(r.compile_ms);
        p.plan_hit.push_back(r.plan_hit);
        p.wall_s += ms / 1000.0;
        check_result(gate, req, r);
        p.digests.push_back(schedule_digest(r));
        quality.add(req.name, r.latency_ns, r.esp);
        p.counts.push_back(work_counts(r));
        if (keep_results) p.results.push_back(std::move(r));
    }
    return p;
}

/// Counts without the tracer's counters (comparable between traced and
/// untraced passes).
WorkCounts untraced_part(const WorkCounts& w) {
    WorkCounts out;
    for (const auto& [k, v] : w.counts)
        if (k.rfind("trace:", 0) != 0) out.counts[k] = v;
    return out;
}

/// Gate: pass `b` repeats pass `a`'s deterministic work counts exactly and,
/// when both ran at Config::threads (1), every schedule digest. Between thread
/// counts a digest difference is reported but not gated: with several threads
/// the compiler occasionally ships a different pulse for one of two targets
/// sharing a phase-aware library key (whichever leads the single-flight
/// computes it), so multi-threaded cold schedules are not bit-reproducible.
void check_repeat(Gate& gate, const Pass& a, const Pass& b, const std::string& what,
                  bool with_trace_counts, bool same_threads) {
    const std::size_t n = std::min(a.digests.size(), b.digests.size());
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string msg = what + ": schedule of request " + std::to_string(i) + " differs";
        if (same_threads)
            gate.attempt(a.digests[i] == b.digests[i], msg);
        else if (a.digests[i] != b.digests[i])
            std::fprintf(stderr, "perfbench: warning: %s\n", msg.c_str());
    }
    const WorkCounts ca = with_trace_counts ? a.counts[n - 1] : untraced_part(a.counts[n - 1]);
    const WorkCounts cb = with_trace_counts ? b.counts[n - 1] : untraced_part(b.counts[n - 1]);
    gate.attempt(ca == cb, what + ": work counts differ:" + ca.diff(cb));
}

fs::path fresh_dir(const fs::path& p) {
    std::error_code ec;
    fs::remove_all(p, ec);
    fs::create_directories(p);
    return p;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from a traced library-mode pass.

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void put_pipeline_layers(Metrics& m, const Pass& traced, int threads) {
    const core::EpocResult& last = traced.results.back();
    const util::TraceReport& t = last.trace;
    const double grape_runs = static_cast<double>(last.trace.counter("qoc.grape_runs"));
    const double lib_hits = static_cast<double>(last.library_stats.hits);
    const double lib_waits = static_cast<double>(last.library_stats.single_flight_waits);
    const double lib_misses = static_cast<double>(last.library_stats.misses);
    const double grape_misses =
        lib_misses - static_cast<double>(last.library_stats.store_hits);
    m.put("qoc.grape_runs", grape_runs, "count");
    m.put("qoc.grape_iterations", static_cast<double>(last.trace.counter("qoc.grape_iterations")),
          "count");
    m.put("qoc.probes_per_pulse", ratio(grape_runs, grape_misses), "ratio");
    const SpanStats grape = span_stats(t, {"grape "});
    const SpanStats pulse_blocks = span_stats(t, {"pulse block", "pulse gate"});
    m.put("qoc.busy_ms", grape.sum_ms, "ms");
    m.put("qoc.max_block_ms", pulse_blocks.max_ms, "ms");

    m.put("pulse_library.hits", lib_hits, "count");
    m.put("pulse_library.misses", lib_misses, "count");
    m.put("pulse_library.single_flight_waits", lib_waits, "count");
    m.put("pulse_library.hit_ratio", ratio(lib_hits + lib_waits, lib_hits + lib_waits + lib_misses),
          "ratio");

    const double converged = static_cast<double>(last.trace.counter("synth.converged"));
    const double unconverged = static_cast<double>(last.trace.counter("synth.unconverged"));
    const util::CacheStats sc = last.synth_cache_stats;
    const SpanStats qsearch = span_stats(t, {"qsearch ", "leap "});
    const SpanStats synth_blocks = span_stats(t, {"synth block"});
    m.put("synthesis.busy_ms", qsearch.sum_ms, "ms");
    m.put("synthesis.max_block_ms", synth_blocks.max_ms, "ms");
    m.put("synthesis.qsearch_calls", converged + unconverged, "count");
    m.put("synth_cache.misses", static_cast<double>(sc.misses), "count");
    m.put("synth_cache.hit_ratio",
          ratio(static_cast<double>(sc.hits + sc.waits),
                static_cast<double>(sc.hits + sc.waits + sc.misses)),
          "ratio");
    m.put("synth.converged_ratio", ratio(converged, converged + unconverged), "ratio");
    m.put("synth.leap_fallbacks", static_cast<double>(last.trace.counter("synth.leap_fallbacks")),
          "count");

    double depth_before = 0.0, depth_after = 0.0, pulses = 0.0;
    for (const core::EpocResult& r : traced.results) {
        if (r.depth_after_zx > 0) {
            depth_before += r.depth_original;
            depth_after += r.depth_after_zx;
        }
        pulses += static_cast<double>(r.num_pulses);
    }
    m.put("zx.busy_ms", span_stats(t, {"zx"}).sum_ms, "ms");
    m.put("zx.depth_ratio", ratio(depth_after, depth_before), "ratio");
    m.put("partition.busy_ms", span_stats(t, {"partition"}).sum_ms, "ms");
    m.put("partition.blocks", static_cast<double>(last.trace.counter("pipeline.blocks")), "count");
    m.put("regroup.busy_ms", span_stats(t, {"regroup"}).sum_ms, "ms");
    m.put("regroup.blocks", static_cast<double>(last.trace.counter("pipeline.regroup_blocks")),
          "count");
    m.put("schedule.busy_ms", span_stats(t, {"schedule asap"}).sum_ms, "ms");
    m.put("schedule.pulses", pulses, "count");

    const SpanStats block_work = span_stats(t, {"synth block", "pulse block", "pulse gate"});
    m.put("pool.utilization", ratio(block_work.sum_ms, 1000.0 * traced.wall_s * threads),
          "ratio");
    m.put("verify.resim_ms", span_stats(t, {"verify."}).sum_ms, "ms");
    // The verifier's tally is per compile() call, unlike the cache stats.
    double revalidations = 0.0, rejects = 0.0;
    for (const core::EpocResult& r : traced.results) {
        revalidations += static_cast<double>(r.verify.pack_revalidations);
        rejects += static_cast<double>(r.verify.revalidate_rejects);
    }
    m.put("verify.pack_revalidations", revalidations, "count");
    m.put("verify.revalidate_rejects", rejects, "count");
    if (last.store_enabled) {
        const store::PulseStoreStats& s = last.store_stats;
        m.put("store.writes", static_cast<double>(s.writes), "count");
        m.put("store.hits", static_cast<double>(s.hits), "count");
        m.put("store.misses", static_cast<double>(s.misses), "count");
        m.put("store.bytes", static_cast<double>(s.bytes), "B");
        m.put("store.corrupt", static_cast<double>(s.corrupt), "count");
        m.put("store.pack.hits", static_cast<double>(s.pack_hits), "count");
        m.put("store.pack.bytes", static_cast<double>(s.pack_bytes), "B");
    }
}

/// Median microseconds per parse_qasm call over the requests' QASM text.
void put_qasm_parse(Metrics& m, const std::vector<Request>& reqs) {
    std::vector<std::string> texts;
    std::set<std::string> seen;
    for (const Request& r : reqs) {
        std::string q = circuit::to_qasm(r.circuit);
        if (seen.insert(q).second) texts.push_back(std::move(q));
    }
    std::vector<double> us;
    std::size_t gates = 0;
    for (int rep = 0; rep < 50; ++rep)
        for (const std::string& q : texts) {
            const auto t0 = Clock::now();
            gates += circuit::parse_qasm(q).size();
            us.push_back(1000.0 * ms_since(t0));
        }
    m.put("circuit.qasm_parse_us", median(us), "us");
}

/// QSearch nodes expanded on the distinct multi-qubit blocks of `circuits`
/// after ZX and partitioning, recomputed through the synthesis module (the
/// compiler exposes calls and convergence, not node counts).
void put_qsearch_nodes(Metrics& m, const std::vector<circuit::Circuit>& circuits,
                       const core::EpocOptions& opt) {
    std::set<std::string> seen;
    double nodes = 0.0;
    for (const circuit::Circuit& c : circuits) {
        const circuit::Circuit zx = opt.use_zx ? zx::zx_optimize(c).circuit : c;
        for (const partition::CircuitBlock& blk : partition::greedy_partition(zx, opt.partition)) {
            if (blk.qubits.size() < 2) continue;
            const linalg::Matrix u = partition::block_unitary(blk);
            if (!seen.insert(linalg::phase_canonical_key(u)).second) continue;
            nodes += synthesis::qsearch_synthesize(u, opt.qsearch).nodes_expanded;
        }
    }
    m.put("synthesis.nodes_expanded", nodes, "count");
}

/// Store I/O timed through the PulseStore API: load every key from `source`
/// (a store directory and/or mounted packs), then store each entry into a
/// fresh directory.
void put_store_io(Metrics& m, const fs::path& work, const std::vector<std::string>& keys,
                  store::PulseStoreOptions source) {
    source.max_bytes = 0;
    store::PulseStore src(source);
    std::vector<std::pair<std::string, qoc::LatencyResult>> entries;
    std::vector<double> load_us, write_us;
    for (const std::string& key : keys) {
        const auto t0 = Clock::now();
        std::optional<qoc::LatencyResult> r = src.load(key);
        load_us.push_back(1000.0 * ms_since(t0));
        if (r) entries.emplace_back(key, std::move(*r));
    }
    store::PulseStoreOptions sink;
    sink.dir = fresh_dir(work / "io-store").string();
    sink.max_bytes = 0;
    store::PulseStore dst(sink);
    for (const auto& [key, r] : entries) {
        const auto t0 = Clock::now();
        dst.store(key, r);
        write_us.push_back(1000.0 * ms_since(t0));
    }
    m.put("store.load_us_p50", median(load_us), "us");
    m.put("store.write_us_p50", median(write_us), "us");
}

/// Every entry file of a store directory, in file-name order.
std::vector<store::PackEntry> read_entries(const fs::path& dir) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".pulse") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::vector<store::PackEntry> entries;
    for (const fs::path& p : files)
        if (auto pe = store::PulseStore::read_entry_file(p)) entries.push_back(std::move(*pe));
    return entries;
}

// ---------------------------------------------------------------------------
// Library-mode passes (fig9-cold, and the plan-cache layer of its traced run).

struct LibrarySpec {
    std::vector<Request> reqs;
    /// Options for a fresh compiler; `tag` names its private scratch state.
    std::function<core::EpocOptions(const std::string& tag)> options;
    /// Workload invariants checked on every pass.
    std::function<void(const Pass&, Gate&)> check_pass;
};

Pass run_fresh(const LibrarySpec& s, const std::string& tag, bool traced, int threads,
               Gate& gate, Quality& quality) {
    core::EpocOptions opt = s.options(tag);
    opt.trace_enabled = traced;
    if (threads > 0) opt.num_threads = threads;
    core::EpocCompiler compiler(opt);
    Pass p = run_pass(compiler, s.reqs, gate, quality, traced);
    if (s.check_pass) s.check_pass(p, gate);
    return p;
}

/// A fig9 pass as one window: a job is one pass over the list, the paper's
/// unit of work.
Window pass_window(const Pass& p) {
    Window w;
    w.wall_s = p.wall_s;
    w.requests = static_cast<double>(p.call_ms.size());
    w.job_ms_p50 = w.job_ms_p90 = 1000.0 * p.wall_s;
    w.iter_ms_p50 = w.iter_ms_p90 = std::accumulate(p.compile_ms.begin(), p.compile_ms.end(), 0.0);
    return w;
}

/// Setup rounds run before every pass so the setup samples span the run like
/// the passes do. A round takes kSetupSamplesPerRound samples, each the mean
/// of kSetupBatch timed compiler constructions (one is ~20 us).
constexpr int kSetupSamplesPerRound = 10;
constexpr int kSetupBatch = 20;
constexpr int kMinPasses = 2;

/// Runs the passes of a library workload; in the traced run, returns the
/// traced pass. The untraced run keeps Config::replicas passes going side by
/// side until the time is up, each replica on its own fresh compilers, and
/// pools their windows and setup samples.
Pass run_library_workload(const Args& a, const LibrarySpec& s, Metrics& m, Gate& gate) {
    E2E e;
    if (!a.trace) {
        const auto t0 = Clock::now();
        std::vector<E2E> parts(static_cast<std::size_t>(a.cfg.replicas));
        std::vector<std::vector<Pass>> passes(parts.size());
        const auto replica = [&](std::size_t r) {
            E2E& part = parts[r];
            std::vector<Pass>& mine = passes[r];
            const std::string tag = "r" + std::to_string(r) + "-";
            while (static_cast<int>(mine.size()) < kMinPasses ||
                   ms_since(t0) < 1000.0 * a.seconds) {
                for (int i = 0; i < kSetupSamplesPerRound; ++i) {
                    double sum_ms = 0.0;
                    for (int j = 0; j < kSetupBatch; ++j) {
                        const core::EpocOptions opt = s.options(tag + "setup");
                        const auto t1 = Clock::now();
                        auto compiler = std::make_unique<core::EpocCompiler>(opt);
                        sum_ms += ms_since(t1);
                    }
                    part.setup_s.push_back(sum_ms / 1000.0 / kSetupBatch);
                }
                mine.push_back(run_fresh(s, tag + "pass" + std::to_string(mine.size()), false, 0,
                                         gate, part.quality));
                part.windows.push_back(pass_window(mine.back()));
                if (mine.size() > 1)
                    check_repeat(gate, mine.front(), mine.back(), "pass repeat", false, true);
            }
        };
        std::vector<std::thread> workers;
        for (std::size_t r = 0; r < parts.size(); ++r) workers.emplace_back(replica, r);
        for (std::thread& t : workers) t.join();
        for (std::size_t r = 0; r < parts.size(); ++r) {
            if (r > 0)
                check_repeat(gate, passes[0].front(), passes[r].front(), "replica repeat", false,
                             true);
            e.setup_s.insert(e.setup_s.end(), parts[r].setup_s.begin(), parts[r].setup_s.end());
            e.windows.insert(e.windows.end(), parts[r].windows.begin(), parts[r].windows.end());
            e.quality.outputs.insert(parts[r].quality.outputs.begin(),
                                     parts[r].quality.outputs.end());
        }
        put_e2e(m, e);
        return {};
    }
    const Pass untraced = run_fresh(s, "untraced", false, 0, gate, e.quality);
    Pass traced = run_fresh(s, "traced", true, 0, gate, e.quality);
    check_repeat(gate, untraced, traced, "traced vs untraced pass", false, true);
    put_pipeline_layers(m, traced, a.cfg.threads);
    m.put("trace.overhead.compile_s", traced.wall_s - untraced.wall_s, "s");
    m.put("trace.overhead.job_ms_p50", median(traced.call_ms) - median(untraced.call_ms), "ms");
    put_qasm_parse(m, s.reqs);
    return traced;
}

core::EpocOptions with_store(core::EpocOptions opt, const fs::path& dir) {
    opt.pulse_store_dir = fresh_dir(dir).string();
    return opt;
}

/// The pack layers, measured in fig9-cold's traced run: fold the traced cold
/// pass's store into one pack, then compile the same circuits on a fresh
/// compiler whose empty store mounts it, at the configured thread count and
/// at Config::check_threads. Every pack hit is re-simulated by the verifier;
/// no GRAPE may run, and every schedule must equal the cold pass's.
void put_pack_layers(const Args& a, const std::vector<Request>& reqs, const Pass& cold,
                     const fs::path& cold_store, Metrics& m, Gate& gate) {
    const fs::path pack_dir = fresh_dir(a.work_dir / "packs");
    const fs::path pack = pack_dir / "fig9.pack";
    const auto t_fold = Clock::now();
    const bool folded = store::write_pack(pack, read_entries(cold_store));
    m.put("pack.write_ms", ms_since(t_fold), "ms");
    gate.attempt(folded, "fig9-cold: folding the cold store into a pack failed");
    if (!folded) return;

    const auto pack_pass = [&](const std::string& tag, int threads) {
        core::EpocOptions opt = fig9_options(a.cfg);
        opt.pulse_store_dir = fresh_dir(a.work_dir / (tag + "-store")).string();
        opt.pulse_pack_dirs = {pack_dir.string()};
        opt.trace_enabled = true;
        opt.num_threads = threads;
        core::EpocCompiler compiler(opt);
        Quality unused;
        Pass p = run_pass(compiler, reqs, gate, unused, true);
        const core::EpocResult& last = p.results.back();
        gate.attempt(p.digests == cold.digests, "pack pass: digests differ from the cold pass");
        gate.attempt(last.trace.counter("qoc.grape_runs") == 0, "pack pass: GRAPE ran");
        gate.attempt(last.store_stats.writes == 0, "pack pass: the store was written");
        return p;
    };
    const Pass packed = pack_pass("pack", a.cfg.threads);
    check_repeat(gate, packed, pack_pass("pack-tn", a.cfg.check_threads),
                 std::to_string(a.cfg.check_threads) + "-thread pack pass", true, false);

    const core::EpocResult& last = packed.results.back();
    double revalidations = 0.0, rejects = 0.0;
    for (const core::EpocResult& r : packed.results) {
        revalidations += static_cast<double>(r.verify.pack_revalidations);
        rejects += static_cast<double>(r.verify.revalidate_rejects);
    }
    m.put("verify.resim_ms", span_stats(last.trace, {"verify."}).sum_ms, "ms");
    m.put("verify.pack_revalidations", revalidations, "count");
    m.put("verify.revalidate_rejects", rejects, "count");
    m.put("store.pack.hits", static_cast<double>(last.store_stats.pack_hits), "count");
    m.put("store.pack.bytes", static_cast<double>(last.store_stats.pack_bytes), "B");
    m.put("pack.compile_s", packed.wall_s, "s");
    m.put("pack.synthesis_busy_ms", span_stats(last.trace, {"qsearch ", "leap "}).sum_ms, "ms");

    std::vector<double> open_ms, find_us;
    for (int i = 0; i < 9; ++i) {
        const auto t0 = Clock::now();
        gate.attempt(store::PackReader::open(pack) != nullptr, "pack does not open");
        open_ms.push_back(ms_since(t0));
    }
    const std::shared_ptr<store::PackReader> reader = store::PackReader::open(pack);
    std::vector<std::string> keys;
    if (reader)
        reader->for_each([&](const std::string& key, const std::string&) {
            keys.push_back(key);
            return true;
        });
    for (const std::string& key : keys) {
        const auto t0 = Clock::now();
        gate.attempt(reader->find(key).has_value(), "pack entry unreadable");
        find_us.push_back(1000.0 * ms_since(t0));
    }
    m.put("pack.open_ms", median(open_ms), "ms");
    m.put("pack.find_us_p50", median(find_us), "us");
}

/// The plan-cache layer, measured in fig9-cold's traced run (the Fig. 9 arm
/// compiles with the plan cache off): bench_variational sweep 1, one plan
/// build and then the first kPlanWalkSteps steps of the seeded walk, compiled
/// untraced, traced, and traced at Config::check_threads. Every traced result
/// carries the cumulative trace, so the walk is kept short.
void put_plan_layers(const Args& a, Metrics& m, Gate& gate) {
    constexpr int kPlanWalkSteps = 100;
    LibrarySpec s;
    s.reqs = vqe_requests(a.seed, kPlanWalkSteps);
    s.options = [&](const std::string&) { return vqe_options(a.cfg); };
    s.check_pass = [](const Pass& p, Gate& g) {
        g.attempt(!p.plan_hit.front(), "vqe sweep: first compile did not build a plan");
        g.attempt(std::count(p.plan_hit.begin(), p.plan_hit.end(), true) ==
                      static_cast<long>(p.plan_hit.size()) - 1,
                  "vqe sweep: a walk step missed the plan cache");
    };
    Quality unused;
    const Pass untraced = run_fresh(s, "vqe", false, 0, gate, unused);
    const Pass traced = run_fresh(s, "vqe-traced", true, 0, gate, unused);
    check_repeat(gate, untraced, traced, "vqe traced vs untraced pass", false, true);
    check_repeat(gate, traced, run_fresh(s, "vqe-tn", true, a.cfg.check_threads, gate, unused),
                 "vqe " + std::to_string(a.cfg.check_threads) + "-thread traced pass", true,
                 false);

    const core::EpocResult& last = traced.results.back();
    const util::TraceReport& t = last.trace;
    m.put("qoc.warm_starts", static_cast<double>(last.trace.counter("qoc.warm_starts")), "count");
    const double plan_hits = static_cast<double>(last.trace.counter("plan.hits"));
    m.put("plan.build_ms", span_stats(t, {"plan build"}).sum_ms, "ms");
    m.put("plan.hits", plan_hits, "count");
    m.put("plan.misses", static_cast<double>(last.trace.counter("plan.misses")), "count");
    std::vector<double> hit_ms;
    double iterations_before_hits = 0.0;
    for (std::size_t i = 0; i < traced.results.size(); ++i) {
        if (traced.plan_hit[i])
            hit_ms.push_back(traced.compile_ms[i]);
        else
            iterations_before_hits = static_cast<double>(
                traced.results[i].trace.counter("qoc.grape_iterations"));
    }
    m.put("plan.hit_ms_p50", median(hit_ms), "ms");
    m.put("plan.grape_iterations_per_hit",
          ratio(static_cast<double>(last.trace.counter("qoc.grape_iterations")) -
                    iterations_before_hits,
                plan_hits),
          "count");
}

void fig9_cold(const Args& a, Metrics& m, Gate& gate) {
    LibrarySpec s;
    s.reqs = fig9_requests();
    s.options = [&](const std::string& tag) {
        return with_store(fig9_options(a.cfg), a.work_dir / (tag + "-store"));
    };
    s.check_pass = [](const Pass& p, Gate& g) {
        const WorkCounts& w = p.counts.back();
        g.attempt(w.counts.at("store.hits") == 0, "fig9-cold: the cold store served a hit");
    };
    const Pass traced = run_library_workload(a, s, m, gate);
    if (!a.trace) return;
    std::vector<circuit::Circuit> circuits;
    for (const Request& r : s.reqs) circuits.push_back(r.circuit);
    put_qsearch_nodes(m, circuits, fig9_options(a.cfg));
    store::PulseStoreOptions src;
    src.dir = (a.work_dir / "traced-store").string();
    std::vector<std::string> keys;
    for (const store::PackEntry& e : read_entries(src.dir)) keys.push_back(e.key);
    put_store_io(m, a.work_dir, keys, src);
    put_pack_layers(a, s.reqs, traced, src.dir, m, gate);
    put_plan_layers(a, m, gate);
}

// ---------------------------------------------------------------------------
// service-hot: closed-loop clients against an in-process daemon.

/// Folds service-hot's job completions into windows of kJobsPerWindow as
/// they arrive, so the harness's own memory (part of peak_rss_mb) does not
/// grow with throughput. Every job is one gate attempt. The traced run also
/// keeps every sample for the service.* tails.
class JobWindows {
public:
    JobWindows(Gate& gate, bool keep_samples) : gate_(gate), keep_samples_(keep_samples) {}

    /// `ok`: status ok, not degraded, digest equal to the library-mode compile.
    void add(double rtt_ms, double compile_ms, bool ok) {
        const std::lock_guard<std::mutex> lock(mutex_);
        gate_.attempt(ok, "service-hot: job failed, was degraded, or its digest differs from "
                          "the library-mode compile");
        rtt_ms_.push_back(rtt_ms);
        compile_ms_.push_back(compile_ms);
        if (keep_samples_) {
            all_rtt_ms.push_back(rtt_ms);
            all_compile_ms.push_back(compile_ms);
        }
        if (rtt_ms_.size() < kJobsPerWindow) return;
        const double now_s = ms_since(t0_) / 1000.0;
        Window w;
        w.wall_s = now_s - window_start_s_;
        w.requests = static_cast<double>(rtt_ms_.size());
        w.job_ms_p50 = median(rtt_ms_);
        w.job_ms_p90 = percentile(rtt_ms_, 90.0);
        w.iter_ms_p50 = median(compile_ms_);
        w.iter_ms_p90 = percentile(compile_ms_, 90.0);
        windows.push_back(w);
        window_start_s_ = now_s;
        rtt_ms_.clear();
        compile_ms_.clear();
    }

    void fail(const std::string& what) {
        const std::lock_guard<std::mutex> lock(mutex_);
        gate_.attempt(false, what);
    }

    std::vector<Window> windows; ///< complete windows; a trailing partial one is dropped
    std::vector<double> all_rtt_ms, all_compile_ms; ///< only when keep_samples

private:
    Gate& gate_;
    const bool keep_samples_;
    const Clock::time_point t0_ = Clock::now();
    double window_start_s_ = 0.0;
    std::vector<double> rtt_ms_, compile_ms_;
    std::mutex mutex_;
};

void service_hot(const Args& a, Metrics& m, Gate& gate) {
    const std::vector<Request> soak = service_soak_set();
    std::vector<std::string> qasm;
    for (const Request& r : soak) qasm.push_back(circuit::to_qasm(r.circuit));

    // Library-mode reference compile of the same circuits (the digest oracle,
    // not timed). The tracer is toggled per phase.
    // Hot jobs are ~0.5 ms of cache lookups: every compile on this workload
    // runs inline on its caller (Config::threads = 1), so the executors, not
    // per-job hand-offs to a worker pool, provide the parallelism.
    core::EpocOptions twin_opt = service_options(a.cfg);
    twin_opt.trace_enabled = true;
    core::EpocCompiler twin(twin_opt);
    twin.tracer().set_enabled(false);
    // The four compiles run concurrently, as the daemon's warm-up does.
    // compile() never throws, so the workers need no exception handling.
    std::vector<circuit::Circuit> parsed;
    for (const std::string& q : qasm) parsed.push_back(circuit::parse_qasm(q));
    std::vector<core::EpocResult> warm(soak.size());
    {
        std::vector<std::thread> workers;
        for (std::size_t i = 0; i < soak.size(); ++i)
            workers.emplace_back([&, i] { warm[i] = twin.compile(parsed[i]); });
        for (std::thread& t : workers) t.join();
    }
    std::vector<std::uint64_t> ref;
    E2E e;
    for (std::size_t i = 0; i < soak.size(); ++i) {
        check_result(gate, soak[i], warm[i]);
        ref.push_back(schedule_digest(warm[i]));
        e.quality.add(soak[i].name, warm[i].latency_ns, warm[i].esp);
    }
    // Seeded job stream: client c draws circuit indices from its own
    // generator, so the stream does not depend on thread timing.
    const auto job_stream = [&](int client) {
        return std::mt19937_64(a.seed * 1000003ULL + static_cast<std::uint64_t>(client));
    };

    const fs::path sock_dir = fresh_dir(a.work_dir / "sock");
    std::unique_ptr<service::EpocDaemon> daemon;
    service::DaemonOptions dopt;
    dopt.num_executors = a.cfg.executors;
    dopt.compiler = service_options(a.cfg);
    for (int i = 0; i < kServiceSetupReps; ++i) {
        if (daemon) daemon->stop();
        daemon.reset();
        dopt.socket_path = (sock_dir / ("d" + std::to_string(i) + ".sock")).string();
        const auto t0 = Clock::now();
        daemon = std::make_unique<service::EpocDaemon>(dopt);
        daemon->start();
        // Warm-up: the soak set submitted at once, one job per executor.
        service::EpocClient warm(dopt.socket_path);
        std::vector<std::uint64_t> ids;
        for (const std::string& q : qasm) ids.push_back(warm.submit(q, "warmup"));
        for (std::size_t k = 0; k < ids.size(); ++k) {
            const service::JobResponse r = warm.wait_for(ids[k]);
            gate.attempt(r.status == service::JobStatus::ok && !r.degraded && r.digest == ref[k],
                         "service-hot: warm-up job " + soak[k].name + " failed");
        }
        e.setup_s.push_back(ms_since(t0) / 1000.0);
    }
    const auto daemon_counter = [&](const std::string& name) -> std::uint64_t {
        for (const auto& [k, v] : daemon->status().counters)
            if (k == name) return v;
        return 0;
    };
    const std::uint64_t misses_after_warmup = daemon_counter("qoc.library_misses");

    // Closed loop: each client keeps one job outstanding until the run's time
    // is up.
    const auto t_run = Clock::now();
    JobWindows jobs(gate, a.trace);
    std::vector<std::thread> clients;
    for (int c = 0; c < a.cfg.clients; ++c)
        clients.emplace_back([&, c] {
            try {
                service::EpocClient client(dopt.socket_path);
                std::mt19937_64 rng = job_stream(c);
                const std::string tenant = "client" + std::to_string(c);
                while (ms_since(t_run) < 1000.0 * a.seconds) {
                    const std::size_t k = rng() % soak.size();
                    const auto t1 = Clock::now();
                    const service::JobResponse r = client.compile(qasm[k], tenant);
                    jobs.add(ms_since(t1), r.compile_ms,
                             r.status == service::JobStatus::ok && !r.degraded &&
                                 r.digest == ref[k]);
                }
            } catch (const std::exception& ex) {
                jobs.fail("service-hot: client " + std::to_string(c) + ": " + ex.what());
            } catch (...) {
                jobs.fail("service-hot: client " + std::to_string(c) + " failed");
            }
        });
    for (std::thread& t : clients) t.join();
    gate.attempt(daemon_counter("qoc.library_misses") == misses_after_warmup,
                 "service-hot: the daemon missed its pulse library after warm-up");
    const std::uint64_t peak_pending = daemon_counter("service.peak_pending");
    const std::uint64_t queued = daemon_counter("service.queued");
    daemon->stop();
    daemon.reset();

    e.windows = jobs.windows;
    gate.attempt(e.windows.size() >= 2, "service-hot: fewer than two windows of jobs completed");
    if (!a.trace) {
        put_e2e(m, e);
        return;
    }

    std::vector<double> overhead_ms;
    for (std::size_t i = 0; i < jobs.all_rtt_ms.size(); ++i)
        overhead_ms.push_back(jobs.all_rtt_ms[i] - jobs.all_compile_ms[i]);
    m.put("service.overhead_ms_p50", median(overhead_ms), "ms");
    m.put("service.overhead_ms_p99", percentile(overhead_ms, 99.0), "ms");
    m.put("service.compile_ms_p50", median(jobs.all_compile_ms), "ms");
    m.put("service.compile_ms_p99", percentile(jobs.all_compile_ms, 99.0), "ms");
    m.put("service.job_ms_p99", percentile(jobs.all_rtt_ms, 99.0), "ms");
    m.put("service.peak_pending", static_cast<double>(peak_pending), "count");
    m.put("service.queued", static_cast<double>(queued), "count");
    {
        service::JobRequest req;
        req.id = 7;
        req.tenant = "client0";
        req.qasm = qasm[1];
        service::JobResponse resp;
        resp.id = 7;
        resp.status = service::JobStatus::ok;
        resp.digest = ref[1];
        std::vector<double> enc_us, dec_us;
        for (int i = 0; i < 2000; ++i) {
            const auto t0 = Clock::now();
            const std::string a_bytes = service::encode_job_request(req);
            const std::string b_bytes = service::encode_job_response(resp);
            enc_us.push_back(1000.0 * ms_since(t0));
            const auto t1 = Clock::now();
            const bool ok = service::decode_job_request(a_bytes).has_value() &&
                            service::decode_job_response(b_bytes).has_value();
            dec_us.push_back(1000.0 * ms_since(t1));
            if (!ok) {
                gate.attempt(false, "service-hot: protocol round trip failed");
                break;
            }
        }
        m.put("service.encode_us", median(enc_us), "us");
        m.put("service.decode_us", median(dec_us), "us");
    }

    // Pipeline layers of the hot path: the twin compiles the start of every
    // client's job stream in library mode, untraced and then traced, from warm
    // caches.
    std::vector<Request> stream;
    for (int c = 0; c < a.cfg.clients; ++c) {
        std::mt19937_64 rng = job_stream(c);
        for (int j = 0; j < kTwinJobsPerClient; ++j) {
            const std::size_t k = rng() % soak.size();
            stream.push_back({soak[k].name, circuit::parse_qasm(qasm[k])});
        }
    }
    // Cache stats are cumulative: difference them across the hot stream.
    Quality hot_quality;
    const core::EpocResult before = twin.compile(stream.front().circuit);
    check_result(gate, stream.front(), before);
    const Pass untraced = run_pass(twin, stream, gate, hot_quality, false);
    twin.tracer().reset();
    twin.tracer().set_enabled(true);
    const Pass traced = run_pass(twin, stream, gate, hot_quality, true);
    check_repeat(gate, untraced, traced, "service-hot twin traced vs untraced", false, true);
    put_pipeline_layers(m, traced, a.cfg.threads);
    const core::EpocResult& after = traced.results.back();
    const auto delta = [](std::size_t a, std::size_t b) { return static_cast<double>(b - a); };
    const double lib_hits = delta(before.library_stats.hits, after.library_stats.hits);
    const double lib_waits = delta(before.library_stats.single_flight_waits,
                                   after.library_stats.single_flight_waits);
    const double lib_misses = delta(before.library_stats.misses, after.library_stats.misses);
    m.put("pulse_library.misses", lib_misses, "count");
    m.put("pulse_library.hits", lib_hits, "count");
    m.put("pulse_library.single_flight_waits", lib_waits, "count");
    m.put("pulse_library.hit_ratio", ratio(lib_hits + lib_waits, lib_hits + lib_waits + lib_misses),
          "ratio");
    const util::CacheStats& s0 = before.synth_cache_stats;
    const util::CacheStats& s1 = after.synth_cache_stats;
    const double synth_misses = delta(s0.misses, s1.misses);
    const double synth_hits = delta(s0.hits + s0.waits, s1.hits + s1.waits);
    m.put("synth_cache.misses", synth_misses, "count");
    m.put("synth_cache.hit_ratio", ratio(synth_hits, synth_hits + synth_misses), "ratio");
    gate.attempt(synth_misses == 0.0 && lib_misses == 0.0,
                 "service-hot: the hot stream missed a cache");
    gate.attempt(traced.results.back().trace.counter("qoc.grape_runs") == 0,
                 "service-hot: the hot stream ran GRAPE");
    m.put("trace.overhead.compile_s", traced.wall_s - untraced.wall_s, "s");
    m.put("trace.overhead.job_ms_p50", median(traced.call_ms) - median(untraced.call_ms), "ms");
    put_qasm_parse(m, soak);
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--work-dir") a.work_dir = v;
        else {
            std::fprintf(stderr, "epoc_perfbench: unknown argument %s\n", k.c_str());
            return 2;
        }
    }
    const std::map<std::string, std::function<void(const Args&, Metrics&, Gate&)>> workloads = {
        {"fig9-cold", fig9_cold},
        {"service-hot", service_hot},
    };
    const auto it = workloads.find(a.workload);
    if (it == workloads.end() || a.work_dir.empty()) {
        std::fprintf(stderr,
                     "usage: epoc_perfbench --workload fig9-cold|service-hot"
                     " --seed N --seconds S --trace 0|1 --work-dir DIR\n");
        return 2;
    }
    const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    a.cfg.threads = std::min(a.cfg.threads, cores);
    a.cfg.check_threads = std::min(a.cfg.check_threads, cores);
    a.cfg.replicas = std::min(a.cfg.replicas, cores);
    a.cfg.executors = std::min(a.cfg.executors, cores);
    a.cfg.clients = std::min(a.cfg.clients, cores);
    fresh_dir(a.work_dir);

    Metrics m;
    Gate gate;
    try {
        if (a.trace) kernel_sheet(m, a.seed);
        it->second(a, m, gate);
    } catch (const std::exception& ex) {
        gate.attempt(false, std::string("uncaught exception: ") + ex.what());
    }
    std::error_code ec;
    fs::remove_all(a.work_dir, ec);

    std::fprintf(stderr, "perfbench: max unitary distance %.3g (tolerance %.3g)\n",
                 g_max_unitary_distance, kUnitaryTolerance);
    std::fprintf(stderr, "%s", m.table().c_str());
    const bool correct = gate.failed() == 0;
    std::cout << "{\"config\": {\"threads\": " << a.cfg.threads
              << ", \"check_threads\": " << a.cfg.check_threads
              << ", \"replicas\": " << a.cfg.replicas
              << ", \"executors\": " << a.cfg.executors << ", \"clients\": " << a.cfg.clients
              << ", \"cores\": " << cores << ", \"build_type\": \"" << EPOC_PERFBENCH_BUILD_TYPE
              << "\"}}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << gate.attempted() << ", \"failed\": " << gate.failed()
              << ", \"metrics\": " << m.json() << "}" << std::endl;
    return correct ? 0 : 1;
}
