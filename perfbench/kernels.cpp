// Kernel sheet: the linalg and GRAPE kernels at every block dimension the
// compiler runs, each wall time paired with its operation count.
//
// Inputs are slot Hamiltonians H = drift + sum_j u_j H_j with amplitudes u_j
// drawn uniformly within each control line's bound from the run's seed, so
// the exponentials run at the slot norms GRAPE actually sees. Dimensions:
// 4/8/16 are 2-, 3- and 4-qubit blocks of the default device model; 9 and 27
// are 2- and 3-qubit blocks of a 3-level (qutrit, leakage-aware) backend.
//
// Operation counts are real floating-point operations per call, from the
// algorithms as written (O(d^2) terms of the exponential omitted):
//   matmul d      : 8 d^3 (d^3 complex multiply-adds)
//   exp_i d       : (6 + 1/3 + 1 + s) * 8 d^3 -- six products of the
//                   degree-13 Pade approximant, LU of the denominator,
//                   d-column triangular solves, s squarings (s = 0 at every
//                   measured slot norm)
//   GRAPE iter    : per slot, assembly 4 nc d^2, one exp_i, forward and
//                   backward products 16 d^3, and per control two products
//                   plus one overlap nc (16 d^3 + 8 d^2); plus the final
//                   overlap 8 d^2
#include "kernels.h"

#include "backend/backend.h"
#include "linalg/expm.h"
#include "linalg/random_unitary.h"
#include "qoc/grape.h"

#include <cmath>
#include <random>
#include <string>

namespace perfbench {

namespace {

using epoc::linalg::Matrix;

volatile double g_sink = 0.0;

struct Block {
    std::string tag; ///< d4 / q2 ...
    epoc::qoc::BlockHamiltonian h;
};

Matrix slot_hamiltonian(const epoc::qoc::BlockHamiltonian& h, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> uni(-1.0, 1.0);
    Matrix hk = h.drift;
    for (const epoc::qoc::ControlLine& c : h.controls) {
        Matrix term = c.h;
        term *= std::complex<double>{c.bound * uni(rng), 0.0};
        hk += term;
    }
    return hk;
}

/// Median per-call microseconds of `fn` over 9 batches, each batch at least
/// ~2 ms long.
template <class Fn>
double time_us(Fn&& fn) {
    int per_batch = 1;
    for (;;) {
        const auto t0 = Clock::now();
        for (int i = 0; i < per_batch; ++i) fn();
        if (ms_since(t0) >= 2.0 || per_batch >= (1 << 20)) break;
        per_batch *= 2;
    }
    std::vector<double> us;
    for (int b = 0; b < 9; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < per_batch; ++i) fn();
        us.push_back(1000.0 * ms_since(t0) / per_batch);
    }
    return median(us);
}

double exp_i_flop(const Matrix& h, double dt) {
    constexpr double kTheta13 = 5.371920351148152;
    const double norm = dt * h.one_norm();
    const double s = norm > kTheta13 ? std::ceil(std::log2(norm / kTheta13)) : 0.0;
    const double d = static_cast<double>(h.rows());
    return (6.0 + 1.0 / 3.0 + 1.0 + s) * 8.0 * d * d * d;
}

} // namespace

void kernel_sheet(Metrics& m, std::uint64_t seed) {
    epoc::backend::Backend qutrit("perfbench-qutrit", epoc::circuit::CouplingMap::full(3));
    qutrit.levels = 3;
    qutrit.validate();
    const std::vector<Block> dims = {
        {"d4", epoc::qoc::make_block_hamiltonian(2)},
        {"d8", epoc::qoc::make_block_hamiltonian(3)},
        {"d16", epoc::qoc::make_block_hamiltonian(4)},
        {"d9", qutrit.block_hamiltonian({0, 1})},
        {"d27", qutrit.block_hamiltonian({0, 1, 2})},
    };
    std::mt19937_64 rng(seed ^ 0x6b65726e656cULL);
    for (const Block& b : dims) {
        const Matrix h1 = slot_hamiltonian(b.h, rng);
        const Matrix h2 = slot_hamiltonian(b.h, rng);
        const Matrix u1 = epoc::linalg::exp_i(h1, b.h.dt);
        const Matrix u2 = epoc::linalg::exp_i(h2, b.h.dt);
        const double d = static_cast<double>(h1.rows());
        m.put("linalg.matmul_us." + b.tag, time_us([&] { g_sink = g_sink + (u1 * u2)(0, 0).real(); }),
              "us");
        m.put("linalg.matmul_flop." + b.tag, 8.0 * d * d * d, "flop");
        m.put("linalg.exp_i_us." + b.tag,
              time_us([&] { g_sink = g_sink + epoc::linalg::exp_i(h1, b.h.dt)(0, 0).real(); }),
              "us");
        m.put("linalg.exp_i_flop." + b.tag, exp_i_flop(h1, b.h.dt), "flop");
    }

    // One grape_optimize at 40 slots per block kind; the unreachable target
    // fidelity makes every iteration run its gradient.
    constexpr int kSlots = 40;
    struct GrapeCase {
        std::string tag;
        epoc::qoc::BlockHamiltonian h;
        int iterations;
    };
    const std::vector<GrapeCase> cases = {
        {"q2", dims[0].h, 20},
        {"q3", dims[1].h, 8},
        {"q4", dims[2].h, 3},
        {"q2l3", dims[3].h, 8},
    };
    for (const GrapeCase& g : cases) {
        const std::size_t dim = g.h.drift.rows();
        const Matrix target = epoc::linalg::random_unitary(dim, seed + dim);
        epoc::qoc::GrapeOptions opt;
        opt.max_iterations = g.iterations;
        opt.target_fidelity = 2.0;
        opt.seed = seed;
        const auto t0 = Clock::now();
        const epoc::qoc::Pulse p = epoc::qoc::grape_optimize(g.h, target, kSlots, opt);
        const double us = 1000.0 * ms_since(t0) / g.iterations;
        g_sink = g_sink + p.fidelity;
        const double d = static_cast<double>(dim);
        const double nc = static_cast<double>(g.h.controls.size());
        const Matrix hk = slot_hamiltonian(g.h, rng);
        const double per_slot = 4.0 * nc * d * d + exp_i_flop(hk, g.h.dt) +
                                16.0 * d * d * d + nc * (16.0 * d * d * d + 8.0 * d * d);
        m.put("qoc.grape_iter_us." + g.tag, us, "us");
        m.put("qoc.grape_iter_flop." + g.tag, kSlots * per_slot + 8.0 * d * d, "flop");
    }
}

} // namespace perfbench
