#include "qoc/grape.h"
#include "qoc/hamiltonian.h"
#include "qoc/latency_search.h"
#include "qoc/propagator.h"
#include "qoc/pulse_library.h"

#include "backend/backend.h"
#include "circuit/circuit.h"
#include "circuit/unitary.h"
#include "linalg/expm.h"
#include "linalg/phase.h"
#include "linalg/random_unitary.h"
#include "util/deadline.h"
#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace {

using namespace epoc::qoc;
using epoc::circuit::Circuit;
using epoc::circuit::GateKind;
using epoc::linalg::Matrix;

TEST(Hamiltonian, SingleQubitModel) {
    const auto h = make_block_hamiltonian(1);
    EXPECT_EQ(h.drift.rows(), 2u);
    EXPECT_EQ(h.controls.size(), 2u); // x, y drives only, no coupler
}

TEST(Hamiltonian, TwoQubitModelHasCoupler) {
    const auto h = make_block_hamiltonian(2);
    EXPECT_EQ(h.drift.rows(), 4u);
    EXPECT_EQ(h.controls.size(), 5u); // 2*(x,y) + 1 coupler
    EXPECT_EQ(h.controls.back().label, "xx0_1");
}

TEST(Hamiltonian, ThreeQubitModelCouplerCount) {
    const auto h = make_block_hamiltonian(3);
    EXPECT_EQ(h.controls.size(), 9u); // 6 drives + 3 couplers
}

TEST(Hamiltonian, DriftIsHermitian) {
    const auto h = make_block_hamiltonian(3);
    EXPECT_LT(h.drift.max_abs_diff(h.drift.dagger()), 1e-12);
    for (const auto& c : h.controls)
        EXPECT_LT(c.h.max_abs_diff(c.h.dagger()), 1e-12);
}

TEST(Hamiltonian, RejectsNonPositive) {
    EXPECT_THROW(make_block_hamiltonian(0), std::invalid_argument);
}

TEST(Grape, ReachesXGate) {
    const auto h = make_block_hamiltonian(1);
    GrapeOptions opt;
    opt.target_fidelity = 0.999;
    const Pulse p = grape_optimize(h, epoc::circuit::pauli_x(), 8, opt);
    EXPECT_GE(p.fidelity, 0.999);
    // Cross-check: the claimed fidelity matches the realised propagator.
    const Matrix u = pulse_unitary(h, p);
    EXPECT_NEAR(epoc::linalg::hs_fidelity(u, epoc::circuit::pauli_x()), p.fidelity, 1e-6);
}

TEST(Grape, ReachesCnot) {
    const auto h = make_block_hamiltonian(2);
    GrapeOptions opt;
    opt.target_fidelity = 0.995;
    const Pulse p =
        grape_optimize(h, epoc::circuit::kind_matrix(GateKind::CX, {}), 24, opt);
    EXPECT_GE(p.fidelity, 0.995);
}

TEST(Grape, RespectsAmplitudeBounds) {
    const auto h = make_block_hamiltonian(2);
    const Pulse p =
        grape_optimize(h, epoc::circuit::kind_matrix(GateKind::CX, {}), 24, {});
    for (std::size_t j = 0; j < h.controls.size(); ++j)
        for (const double a : p.amplitudes[j])
            EXPECT_LE(std::abs(a), h.controls[j].bound + 1e-12);
}

TEST(Grape, TooFewSlotsCannotReachTarget) {
    const auto h = make_block_hamiltonian(1);
    // A pi rotation at bounded amplitude needs ~10ns; one 2ns slot cannot.
    const Pulse p = grape_optimize(h, epoc::circuit::pauli_x(), 1, {});
    EXPECT_LT(p.fidelity, 0.9);
}

TEST(Grape, WarmStartSpeedsConvergence) {
    const auto h = make_block_hamiltonian(1);
    GrapeOptions cold;
    cold.target_fidelity = 0.9999;
    const Pulse p1 = grape_optimize(h, epoc::circuit::hadamard(), 8, cold);
    GrapeOptions warm = cold;
    warm.warm_amplitudes = p1.amplitudes;
    const Pulse p2 = grape_optimize(h, epoc::circuit::hadamard(), 8, warm);
    EXPECT_LE(p2.grape_iterations, p1.grape_iterations);
    EXPECT_GE(p2.fidelity, p1.fidelity - 1e-6);
}

TEST(Grape, InvalidArgumentsThrow) {
    const auto h = make_block_hamiltonian(1);
    EXPECT_THROW(grape_optimize(h, Matrix::identity(4), 8, {}), std::invalid_argument);
    EXPECT_THROW(grape_optimize(h, Matrix::identity(2), 0, {}), std::invalid_argument);
}

TEST(LatencySearch, SxShorterThanX) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    const auto rx = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    const auto rsx =
        find_minimal_latency_pulse(h, epoc::circuit::kind_matrix(GateKind::SX, {}), opt);
    EXPECT_TRUE(rx.feasible);
    EXPECT_TRUE(rsx.feasible);
    EXPECT_LT(rsx.pulse.duration(), rx.pulse.duration());
}

TEST(LatencySearch, GroupedBlockBeatsSequentialGates) {
    // The paper's central physical claim (Fig. 7/8): one pulse for a block is
    // shorter than the concatenation of its per-gate pulses.
    const auto h2 = make_block_hamiltonian(2);
    const auto h1 = make_block_hamiltonian(1);
    LatencySearchOptions opt;

    Circuit block(2);
    block.h(0).cx(0, 1);
    const auto grouped =
        find_minimal_latency_pulse(h2, epoc::circuit::circuit_unitary(block), opt);
    const auto h_only = find_minimal_latency_pulse(h1, epoc::circuit::hadamard(), opt);
    const auto cx_only = find_minimal_latency_pulse(
        h2, epoc::circuit::kind_matrix(GateKind::CX, {}), opt);
    EXPECT_TRUE(grouped.feasible);
    EXPECT_LT(grouped.pulse.duration(),
              h_only.pulse.duration() + cx_only.pulse.duration());
}

TEST(LatencySearch, GranularityRoundsUp) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 4;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.pulse.num_slots() % 4, 0);
}

TEST(LatencySearch, InfeasibleReported) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.max_slots = 1; // nothing nontrivial fits in 2ns
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_FALSE(r.feasible);
}

TEST(PulseLibrary, CachesByUnitary) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions opt;
    const auto r1 = lib.get_or_generate(h, epoc::circuit::hadamard(), opt);
    const double d1 = r1->pulse.duration();
    const auto r2 = lib.get_or_generate(h, epoc::circuit::hadamard(), opt);
    EXPECT_EQ(lib.stats().hits, 1u);
    EXPECT_EQ(lib.stats().misses, 1u);
    EXPECT_EQ(r2->pulse.duration(), d1);
}

TEST(PulseLibrary, PhaseAwareHitsPhaseShiftedUnitary) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions opt;
    const Matrix u = epoc::circuit::hadamard();
    lib.get_or_generate(h, u, opt);
    Matrix shifted = u;
    shifted *= std::polar(1.0, 1.234);
    lib.get_or_generate(h, shifted, opt);
    EXPECT_EQ(lib.stats().hits, 1u);
}

TEST(PulseLibrary, PhaseObliviousMisses) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(false); // AccQOC/PAQOC-style raw lookup
    LatencySearchOptions opt;
    const Matrix u = epoc::circuit::hadamard();
    lib.get_or_generate(h, u, opt);
    Matrix shifted = u;
    shifted *= std::polar(1.0, 1.234);
    lib.get_or_generate(h, shifted, opt);
    EXPECT_EQ(lib.stats().hits, 0u);
    EXPECT_EQ(lib.size(), 2u);
}

TEST(PulseLibrary, PeekDoesNotGenerate) {
    PulseLibrary lib(true);
    const auto h = make_block_hamiltonian(1);
    EXPECT_EQ(lib.peek(h, epoc::circuit::hadamard(), LatencySearchOptions{}), nullptr);
    EXPECT_EQ(lib.size(), 0u);
}

// Regression for the cache-key collision: the library used to key on the
// unitary alone, so a coarse-granularity request silently received the
// fine-granularity pulse generated earlier for the same unitary, and the
// wide-block slot coarsening never applied on hits.
TEST(PulseLibrary, GranularityKeyedSeparately) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions fine;
    LatencySearchOptions coarse;
    coarse.slot_granularity = 4;

    // Fine-granularity arm runs first, exactly like the pipeline.
    const auto rf = lib.get_or_generate(h, epoc::circuit::pauli_x(), fine);
    const auto rc = lib.get_or_generate(h, epoc::circuit::pauli_x(), coarse);
    EXPECT_EQ(lib.stats().misses, 2u) << "coarse request must not hit the fine entry";
    EXPECT_EQ(lib.stats().hits, 0u);
    EXPECT_EQ(rc->pulse.num_slots() % 4, 0)
        << "coarse arm's pulse must reflect the coarsened slot search";
    EXPECT_GE(rc->pulse.num_slots(), rf->pulse.num_slots());

    // Same options again: a hit, and the exact shared entry.
    const auto again = lib.get_or_generate(h, epoc::circuit::pauli_x(), coarse);
    EXPECT_EQ(again, rc);
    EXPECT_EQ(lib.stats().hits, 1u);
}

TEST(PulseLibrary, SearchOptionsKeyedSeparately) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions a;
    a.fidelity_threshold = 0.99;
    LatencySearchOptions b = a;
    b.fidelity_threshold = 0.9999;
    lib.get_or_generate(h, epoc::circuit::hadamard(), a);
    lib.get_or_generate(h, epoc::circuit::hadamard(), b);
    LatencySearchOptions c = a;
    c.max_slots = 64;
    lib.get_or_generate(h, epoc::circuit::hadamard(), c);
    EXPECT_EQ(lib.stats().misses, 3u);
    EXPECT_EQ(lib.stats().hits, 0u);
}

TEST(PulseLibrary, NearEqualDoublesKeyedSeparately) {
    // Regression for the precision(12) keying bug: two learning rates one ulp
    // apart rendered to the same 12-significant-digit string and collided
    // into one cache entry. Keys now encode doubles by exact bit pattern
    // (qoc/pulse_io.h), so any representable difference splits the entries —
    // which also keeps the on-disk store's content addresses exact.
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions a;
    a.grape.learning_rate = 0.003;
    LatencySearchOptions b = a;
    b.grape.learning_rate =
        std::nextafter(a.grape.learning_rate, 1.0); // differs past 12 digits
    ASSERT_NE(a.grape.learning_rate, b.grape.learning_rate);
    lib.get_or_generate(h, epoc::circuit::pauli_x(), a);
    lib.get_or_generate(h, epoc::circuit::pauli_x(), b);
    EXPECT_EQ(lib.stats().misses, 2u)
        << "near-equal learning rates must key distinct entries";
    EXPECT_EQ(lib.stats().hits, 0u);

    // And exact re-lookup under each still hits its own entry.
    lib.get_or_generate(h, epoc::circuit::pauli_x(), a);
    lib.get_or_generate(h, epoc::circuit::pauli_x(), b);
    EXPECT_EQ(lib.stats().hits, 2u);
}

TEST(PulseLibrary, DeviceKeyedSeparately) {
    // Same unitary, different device model: the pulses are physically
    // incompatible and must never be traded through the cache.
    DeviceParams slow;
    slow.drive_bound = 0.08;
    const auto h_default = make_block_hamiltonian(1);
    const auto h_slow = make_block_hamiltonian(1, slow);
    PulseLibrary lib(true);
    LatencySearchOptions opt;
    lib.get_or_generate(h_default, epoc::circuit::pauli_x(), opt);
    lib.get_or_generate(h_slow, epoc::circuit::pauli_x(), opt);
    EXPECT_EQ(lib.stats().misses, 2u);
    EXPECT_EQ(lib.stats().hits, 0u);
}

TEST(PulseLibrary, WarmStartDoesNotSplitKeys) {
    // AccQOC's MST construction generates under warm-started options and
    // looks the entry up later under the plain options: same key.
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions plain;
    const auto parent = lib.get_or_generate(h, epoc::circuit::pauli_x(), plain);
    LatencySearchOptions warm = plain;
    warm.grape.warm_amplitudes = parent->pulse.amplitudes;
    lib.get_or_generate(h, epoc::circuit::hadamard(), warm);
    EXPECT_EQ(lib.peek(h, epoc::circuit::hadamard(), plain) != nullptr, true);
    const auto hit = lib.get_or_generate(h, epoc::circuit::hadamard(), plain);
    EXPECT_EQ(lib.stats().hits, 1u);
    EXPECT_EQ(lib.stats().misses, 2u);
    EXPECT_GT(hit->pulse.num_slots(), 0);
}

TEST(LatencySearch, CapNeverExceedsMaxSlots) {
    // round_up(max_slots) used to probe up to granularity-1 slots past the
    // configured budget; the cap is now the largest multiple of the
    // granularity <= max_slots.
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 4;
    opt.max_slots = 10; // cap must be 8, never 12
    opt.fidelity_threshold = 0.999999; // unreachable: forces the full doubling
    opt.grape.max_iterations = 5;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_FALSE(r.feasible);
    EXPECT_LE(r.pulse.num_slots(), 10);
    EXPECT_EQ(r.pulse.num_slots(), 8) << "bracket must stop at the clamped cap";
}

TEST(LatencySearch, FeasibleUnderClampedCap) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 4;
    opt.max_slots = 21; // effective cap 20: never probe 24 (the old round-up)
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.pulse.num_slots() % 4, 0);
    EXPECT_LE(r.pulse.num_slots(), 21);
}

TEST(LatencySearch, GranularityAboveMaxSlotsProbesOneUnit) {
    // No multiple of the granularity fits under max_slots: the documented
    // fallback probes exactly one granularity unit.
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 8;
    opt.max_slots = 5;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_EQ(r.pulse.num_slots(), 8);
    EXPECT_EQ(r.grape_runs, 1);
}

TEST(Grape, NoControlsIsSafe) {
    // nc == 0 plus an empty warm_amplitudes used to read .front() of an empty
    // vector (UB). The optimizer must degrade gracefully: nothing to drive.
    BlockHamiltonian h;
    h.num_qubits = 1;
    h.drift = Matrix::identity(2);
    h.dt = 2.0;
    GrapeOptions opt;
    opt.max_iterations = 3;
    const Pulse p = grape_optimize(h, Matrix::identity(2), 4, opt);
    EXPECT_EQ(p.num_slots(), 0); // no control lines -> no amplitude rows
    EXPECT_FALSE(p.warm_start_applied);
    EXPECT_FALSE(p.warm_start_mismatch);
}

TEST(Grape, WarmStartShapeMismatchSurfaced) {
    const auto h = make_block_hamiltonian(1); // 2 control lines
    GrapeOptions opt;
    opt.max_iterations = 10;
    opt.warm_amplitudes = {{0.1, 0.1}}; // 1 row: wrong control count
    const Pulse p = grape_optimize(h, epoc::circuit::pauli_x(), 8, opt);
    EXPECT_FALSE(p.warm_start_applied);
    EXPECT_TRUE(p.warm_start_mismatch) << "mismatch must be reported, not dropped";

    GrapeOptions good = opt;
    good.warm_amplitudes = {{0.1, 0.1}, {0.1, 0.1}};
    const Pulse q = grape_optimize(h, epoc::circuit::pauli_x(), 8, good);
    EXPECT_TRUE(q.warm_start_applied);
    EXPECT_FALSE(q.warm_start_mismatch);
}

// ---------------------------------------------------------------------------
// Fidelity/amplitude consistency: whatever path a search exits through
// (feasible, infeasible, timed out, nonfinite-aborted), the recorded fidelity
// must be the fidelity OF THE RETURNED AMPLITUDES — re-simulating the pulse
// must reproduce it to float noise. The verify layer's schedule audit flags
// any pulse violating this as corrupt, so a drifting pair here would turn
// every degraded compile into a (false) verification failure.

struct LocalFaultGuard {
    explicit LocalFaultGuard(const std::string& spec) {
        epoc::util::fault::configure(spec);
    }
    ~LocalFaultGuard() { epoc::util::fault::clear(); }
};

double resim_error(const BlockHamiltonian& h, const Matrix& target, const Pulse& p) {
    double f = epoc::linalg::hs_fidelity(target, pulse_unitary(h, p));
    if (!std::isfinite(f)) f = 0.0;
    return std::abs(p.fidelity - f);
}

TEST(LatencySearch, FeasibleFidelityMatchesReturnedAmplitudes) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(resim_error(h, epoc::circuit::pauli_x(), r.pulse), 1e-9);
}

TEST(LatencySearch, InfeasibleFidelityMatchesReturnedAmplitudes) {
    // The infeasible exit ships the best bracket probe; its recorded fidelity
    // must still belong to the shipped amplitudes, not to some probe the
    // search later overwrote.
    const auto h = make_block_hamiltonian(2);
    LatencySearchOptions opt;
    opt.max_slots = 1; // even a CX cannot land in one slot
    opt.fidelity_threshold = 0.999;
    opt.grape.max_iterations = 40;
    Circuit cx(2);
    cx.cx(0, 1);
    const Matrix target = epoc::circuit::circuit_unitary(cx);
    const auto r = find_minimal_latency_pulse(h, target, opt);
    ASSERT_FALSE(r.feasible);
    EXPECT_LT(resim_error(h, target, r.pulse), 1e-9);
}

TEST(LatencySearch, TimedOutFidelityMatchesReturnedAmplitudes) {
    // A pre-expired deadline forces the earliest best-effort exit.
    const auto h = make_block_hamiltonian(1);
    const auto deadline = epoc::util::Deadline::after_ms(0.0);
    ASSERT_TRUE(deadline.expired());
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    opt.deadline = &deadline;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.authoritative());
    EXPECT_LT(resim_error(h, epoc::circuit::pauli_x(), r.pulse), 1e-9);
}

TEST(LatencySearch, NonfiniteAbortFidelityMatchesReturnedAmplitudes) {
    // grape.nonfinite=* aborts every GRAPE run after re-randomizing: the
    // regression this pins is the abort path returning re-randomized
    // amplitudes with the fidelity of the pre-abort iterate.
    const auto h = make_block_hamiltonian(1);
    const LocalFaultGuard g("grape.nonfinite=*");
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    opt.grape.max_iterations = 30;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.pulse.nonfinite_aborted);
    EXPECT_FALSE(r.authoritative());
    EXPECT_LT(resim_error(h, epoc::circuit::pauli_x(), r.pulse), 1e-9);
}

// ---------------------------------------------------------------------------
// Propagator numerical oracles. The propagator's trace-identity gradient is
// checked against (a) the direct formula it replaces, evaluated per control
// line with dense products, and (b) a central finite difference of the
// fidelity. Re-simulated pulses must be unitary at every block dimension.

using epoc::linalg::cplx;
using Amps = std::vector<std::vector<double>>;
using Grad = std::vector<std::vector<cplx>>;

Amps random_amps(const BlockHamiltonian& h, std::size_t ns, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(-1.0, 1.0);
    Amps a(h.controls.size(), std::vector<double>(ns));
    for (std::size_t j = 0; j < a.size(); ++j)
        for (double& u : a[j]) u = h.controls[j].bound * uni(rng);
    return a;
}

/// The direct first-order gradient: dw/du_jk = tr(T^dag B_{k+1} (-i dt H_j)
/// fwd[k+1]), two dense products per control line and slot.
Grad reference_gradient(const BlockHamiltonian& h, const Amps& amps, const Matrix& target,
                        double dt) {
    const std::size_t nc = h.controls.size();
    const std::size_t ns = amps.front().size();
    const std::size_t dim = h.drift.rows();
    std::vector<Matrix> slot_u(ns), fwd(ns + 1), bwd(ns + 1);
    fwd[0] = Matrix::identity(dim);
    for (std::size_t k = 0; k < ns; ++k) {
        Matrix hk = h.drift;
        for (std::size_t j = 0; j < nc; ++j) {
            Matrix term = h.controls[j].h;
            term *= cplx{amps[j][k], 0.0};
            hk += term;
        }
        slot_u[k] = epoc::linalg::exp_i(hk, dt);
        fwd[k + 1] = slot_u[k] * fwd[k];
    }
    bwd[ns] = Matrix::identity(dim);
    for (std::size_t k = ns; k-- > 0;) bwd[k] = bwd[k + 1] * slot_u[k];
    Grad dw(nc, std::vector<cplx>(ns));
    for (std::size_t k = 0; k < ns; ++k)
        for (std::size_t j = 0; j < nc; ++j)
            dw[j][k] = overlap(target, bwd[k + 1] * (h.controls[j].h * fwd[k + 1])) *
                       cplx{0.0, -dt};
    return dw;
}

BlockHamiltonian qutrit_block(std::vector<int> qubits) {
    epoc::backend::Backend b("test-qutrit", epoc::circuit::CouplingMap::full(3));
    b.levels = 3;
    b.validate();
    return b.block_hamiltonian(qubits);
}

TEST(Propagator, GradientMatchesPerLineProductFormula) {
    const std::vector<BlockHamiltonian> blocks = {
        make_block_hamiltonian(2), make_block_hamiltonian(3), qutrit_block({0, 1})};
    for (const BlockHamiltonian& h : blocks) {
        const std::size_t dim = h.drift.rows();
        SCOPED_TRACE("d=" + std::to_string(dim));
        const Amps amps = random_amps(h, 12, 7 + dim);
        const Matrix target = epoc::linalg::random_unitary(dim, 11 + dim);
        Propagator prop(h, h.dt);
        prop.propagate(amps, 12);
        Grad dw;
        prop.overlap_gradient(target, dw);
        const Grad ref = reference_gradient(h, amps, target, h.dt);
        ASSERT_EQ(dw.size(), ref.size());
        double scale = 0.0, err = 0.0;
        for (std::size_t j = 0; j < ref.size(); ++j)
            for (std::size_t k = 0; k < ref[j].size(); ++k) {
                scale = std::max(scale, std::abs(ref[j][k]));
                err = std::max(err, std::abs(dw[j][k] - ref[j][k]));
            }
        ASSERT_GT(scale, 0.0);
        EXPECT_LT(err, 1e-12 * scale);
    }
}

double fidelity_of(const BlockHamiltonian& h, const Amps& amps, const Matrix& target,
                   double dt) {
    Propagator prop(h, dt);
    return std::abs(overlap(target, prop.propagate(amps, amps.front().size()))) /
           static_cast<double>(target.rows());
}

/// Max over (j, k) of |analytic dF/du_jk - central difference|, relative to
/// the largest analytic component.
double fd_relative_error(const BlockHamiltonian& h, const Matrix& target, double dt) {
    const Amps amps = random_amps(h, 6, 5);
    Propagator prop(h, dt);
    const cplx w = overlap(target, prop.propagate(amps, 6));
    Grad dw;
    prop.overlap_gradient(target, dw);
    const double d = static_cast<double>(target.rows());
    const cplx wbar = std::conj(w) / std::abs(w);
    constexpr double kStep = 1e-5;
    double scale = 0.0, err = 0.0;
    for (std::size_t j = 0; j < amps.size(); ++j)
        for (std::size_t k = 0; k < amps[j].size(); ++k) {
            Amps plus = amps, minus = amps;
            plus[j][k] += kStep;
            minus[j][k] -= kStep;
            const double fd = (fidelity_of(h, plus, target, dt) -
                               fidelity_of(h, minus, target, dt)) /
                              (2.0 * kStep);
            const double analytic = std::real(wbar * dw[j][k]) / d;
            scale = std::max(scale, std::abs(analytic));
            err = std::max(err, std::abs(analytic - fd));
        }
    return err / scale;
}

TEST(Propagator, GradientMatchesFiniteDifference) {
    // The gradient is first order in dt: exact when every slot Hamiltonian
    // commutes with every control line. X(x)I, I(x)Y and X(x)Y commute
    // pairwise, and Y's imaginary antisymmetric entries make the (row, col)
    // orientation of the trace identity observable.
    const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    const Matrix y{{0.0, cplx{0.0, -1.0}}, {cplx{0.0, 1.0}, 0.0}};
    const Matrix id = Matrix::identity(2);
    BlockHamiltonian h;
    h.num_qubits = 2;
    h.dt = 2.0;
    h.drift = epoc::linalg::kron(x, y);
    h.drift *= cplx{0.01, 0.0};
    h.controls = {{"x0", epoc::linalg::kron(x, id), 0.15},
                  {"y1", epoc::linalg::kron(id, y), 0.15},
                  {"xy", epoc::linalg::kron(x, y), 0.05}};
    const Matrix target = epoc::linalg::random_unitary(4, 3);
    EXPECT_LT(fd_relative_error(h, target, h.dt), 1e-6);

    // On the (non-commuting) device model the first-order gradient converges
    // to the true derivative as the slot width shrinks.
    const BlockHamiltonian dev = make_block_hamiltonian(2);
    const Matrix t2 = epoc::linalg::random_unitary(4, 9);
    const double coarse = fd_relative_error(dev, t2, 0.1);
    const double fine = fd_relative_error(dev, t2, 0.01);
    EXPECT_LT(fine, 0.2 * coarse);
    EXPECT_LT(fine, 1e-2);
}

TEST(Propagator, PulseUnitaryIsUnitaryAtEveryBlockDimension) {
    const std::vector<BlockHamiltonian> blocks = {
        make_block_hamiltonian(2), make_block_hamiltonian(3), make_block_hamiltonian(4),
        qutrit_block({0, 1}), qutrit_block({0, 1, 2})};
    for (const BlockHamiltonian& h : blocks) {
        SCOPED_TRACE("d=" + std::to_string(h.drift.rows()));
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Pulse p;
            p.dt = h.dt;
            p.amplitudes = random_amps(h, 24, seed);
            EXPECT_TRUE(pulse_unitary(h, p).is_unitary(1e-12));
        }
    }
}

TEST(Propagator, RejectsMisshapenAmplitudes) {
    const auto h = make_block_hamiltonian(1); // 2 control lines
    Propagator prop(h, h.dt);
    EXPECT_THROW(prop.propagate({{0.1, 0.1}}, 2), std::invalid_argument);
    EXPECT_THROW(prop.propagate({{0.1, 0.1}, {0.1}}, 2), std::invalid_argument);
    EXPECT_TRUE(prop.propagate({}, 0).approx_equal(Matrix::identity(2), 0.0));
}

// ---------------------------------------------------------------------------
// Generator epoch: entries persisted by older numerics must miss.

class MapTier final : public PulseTier {
public:
    std::optional<LatencyResult> load(const std::string& key, bool*) override {
        const auto it = entries.find(key);
        if (it == entries.end()) return std::nullopt;
        return it->second;
    }
    void store(const std::string& key, const LatencyResult& r) override { entries[key] = r; }
    std::map<std::string, LatencyResult> entries;
};

TEST(PulseLibrary, PreviousEpochKeysMiss) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    MapTier written;
    PulseLibrary first;
    first.set_store(&written);
    first.get_or_generate(h, epoc::circuit::pauli_x(), opt);
    ASSERT_EQ(written.entries.size(), 1u);
    const std::string key = written.entries.begin()->first;
    const std::string suffix = "|E:" + std::to_string(kGeneratorEpoch);
    ASSERT_GE(key.size(), suffix.size());
    ASSERT_EQ(key.substr(key.size() - suffix.size()), suffix);
    const std::string base = key.substr(0, key.size() - suffix.size());
    const LatencyResult entry = written.entries.begin()->second;

    // The same entry under the previous epoch's key strings: the seed
    // numerics (no epoch component) and an explicit E:<epoch - 1>.
    MapTier stale;
    stale.entries[base] = entry;
    stale.entries[base + "|E:" + std::to_string(kGeneratorEpoch - 1)] = entry;
    PulseLibrary second;
    second.set_store(&stale);
    second.get_or_generate(h, epoc::circuit::pauli_x(), opt);
    EXPECT_EQ(second.stats().store_hits, 0u);
    EXPECT_EQ(second.stats().store_misses, 1u);
    EXPECT_EQ(stale.entries.count(key), 1u); // regenerated under the current key

    PulseLibrary third;
    third.set_store(&stale);
    third.get_or_generate(h, epoc::circuit::pauli_x(), opt);
    EXPECT_EQ(third.stats().store_hits, 1u);
}

} // namespace
