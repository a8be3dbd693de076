#include "harness.h"

#include "circuit/unitary.h"
#include "epoc/export.h"
#include "qoc/pulse_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    const double upper = v[mid];
    if (v.size() % 2 == 1) return upper;
    return 0.5 * (upper + *std::max_element(v.begin(), v.begin() + static_cast<long>(mid)));
}

void Metrics::put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    const auto it = index_.find(name);
    if (it != index_.end()) {
        entries_[it->second] = {name, value, unit};
        return;
    }
    index_[name] = entries_.size();
    entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
    std::ostringstream out;
    out.precision(17);
    out << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        out << (i ? ", " : "") << '"' << e.name << "\": {\"value\": " << e.value
            << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << '}';
    return out.str();
}

std::string Metrics::table() const {
    std::ostringstream out;
    char line[160];
    for (const Entry& e : entries_) {
        std::snprintf(line, sizeof line, "  %-34s %16.6g %s\n", e.name.c_str(), e.value,
                      e.unit.c_str());
        out << line;
    }
    return out.str();
}

void Gate::attempt(bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

std::uint64_t Gate::attempted() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t Gate::failed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

std::uint64_t schedule_digest(const epoc::core::EpocResult& r) {
    return epoc::qoc::fnv1a64(epoc::core::schedule_to_json(r.schedule));
}

double unitary_distance(const epoc::circuit::Circuit& a, const epoc::circuit::Circuit& b) {
    if (a.num_qubits() != b.num_qubits()) return 1.0;
    const epoc::linalg::Matrix ua = epoc::circuit::circuit_unitary(a);
    const epoc::linalg::Matrix ub = epoc::circuit::circuit_unitary(b);
    std::complex<double> tr{0.0, 0.0};
    for (std::size_t i = 0; i < ua.rows(); ++i)
        for (std::size_t j = 0; j < ua.cols(); ++j) tr += std::conj(ua(i, j)) * ub(i, j);
    const double f = std::abs(tr) / static_cast<double>(ua.rows());
    return std::sqrt(std::max(0.0, 1.0 - f));
}

std::string WorkCounts::diff(const WorkCounts& o) const {
    std::ostringstream out;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> all;
    for (const auto& [k, v] : counts) all[k].first = v;
    for (const auto& [k, v] : o.counts) all[k].second = v;
    for (const auto& [k, ab] : all)
        if (ab.first != ab.second) out << ' ' << k << '=' << ab.first << '/' << ab.second;
    return out.str();
}

WorkCounts work_counts(const epoc::core::EpocResult& r) {
    WorkCounts w;
    // Cache misses only: a single-flight waiter is counted instead of a hit,
    // and how many lookups race depends on thread timing.
    w.counts["pulse_library.misses"] = r.library_stats.misses;
    w.counts["pulse_library.store_hits"] = r.library_stats.store_hits;
    w.counts["pulse_library.store_writes"] = r.library_stats.store_writes;
    w.counts["synth_cache.misses"] = r.synth_cache_stats.misses;
    if (r.store_enabled) {
        w.counts["store.hits"] = r.store_stats.hits;
        w.counts["store.misses"] = r.store_stats.misses;
        w.counts["store.writes"] = r.store_stats.writes;
        w.counts["store.pack.hits"] = r.store_stats.pack_hits;
    }
    static const std::set<std::string> kTimingDependent = {
        "pulse_library.hits", "pulse_library.single_flight_waits",
        "synth_cache.hits",   "synth_cache.single_flight_waits",
        "qoc.waiter_retries", "synth.waiter_retries"};
    for (const auto& [name, value] : r.trace.counters)
        if (kTimingDependent.count(name) == 0) w.counts["trace:" + name] = value;
    return w;
}

SpanStats span_stats(const epoc::util::TraceReport& t,
                     const std::vector<std::string>& prefixes) {
    SpanStats s;
    for (const epoc::util::TraceEvent& e : t.spans) {
        const bool match = std::any_of(prefixes.begin(), prefixes.end(), [&](const auto& p) {
            return e.name.compare(0, p.size(), p) == 0;
        });
        if (!match) continue;
        const double ms = static_cast<double>(e.end_ns - e.begin_ns) / 1e6;
        s.sum_ms += ms;
        s.max_ms = std::max(s.max_ms, ms);
    }
    return s;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace perfbench
