// The slot propagator shared by GRAPE, CRAB and pulse re-simulation.
//
// A piecewise-constant pulse realises U = U_ns ... U_1 with slot propagators
// U_k = exp(-i dt H_k), H_k = H0 + sum_j u_jk H_j. The propagator assembles
// each H_k in place into reusable scratch (every control line is kept as a
// sparse (row, col, value) list, so assembly costs O(nnz) per line),
// exponentiates it with the norm-sized Pade expm, and keeps the forward
// products fwd[k] = U_k ... U_1 for the gradient.
//
// Gradient (the trace identity). The optimizers maximise |w|, w = tr(T^dag U).
// To first order in dt, dU/du_jk = B_{k+1} (-i dt H_j) fwd[k+1] with
// B_{k+1} = U_ns ... U_{k+2}, so with G_k = T^dag U_ns ... U_{k+1}
//
//     dw/du_jk = -i dt tr(M_k H_j),    M_k = fwd[k+1] G_{k+1},
//
// and tr(M_k H_j) = sum over nnz(H_j) of M_k(c, r) H_j(r, c). One backward
// sweep chains G and forms each M_k: 2 dense products per slot on top of the
// forward product, however many control lines the block has (evaluating
// B_{k+1} H_j fwd[k+1] per line costs 2 products per line).
#pragma once

#include "qoc/hamiltonian.h"

#include "linalg/expm.h"

#include <cstddef>
#include <vector>

namespace epoc::qoc {

using linalg::cplx;

/// tr(a^dag b): the overlap whose modulus the optimizers maximise.
cplx overlap(const Matrix& a, const Matrix& b);

class Propagator {
public:
    /// Propagator for the drift and control lines of `h` (copied, so `h`
    /// need not outlive it) at slot width `dt`.
    Propagator(const BlockHamiltonian& h, double dt);

    /// The realised unitary U_ns ... U_1 of the first `num_slots` slots of
    /// `amps` (amps[j][k]: control line j, slot k). The reference stays valid
    /// until the next call. Throws std::invalid_argument when `amps` does not
    /// have one row of at least `num_slots` amplitudes per control line.
    const Matrix& propagate(const std::vector<std::vector<double>>& amps,
                            std::size_t num_slots);

    /// dw[j][k] = d tr(target^dag U) / du_jk for the pulse of the last
    /// propagate(), first order in dt (exact when H_k commutes with H_j).
    void overlap_gradient(const Matrix& target, std::vector<std::vector<cplx>>& dw);

private:
    struct Entry {
        std::size_t at;   ///< row-major index r*d + c of a nonzero H_j(r, c)
        std::size_t at_t; ///< its transpose c*d + r
        cplx value;
    };

    Matrix drift_;
    double dt_;
    std::size_t dim_;
    std::vector<std::vector<Entry>> lines_; ///< sparse H_j per control line
    std::size_t num_slots_ = 0;             ///< of the last propagate()
    std::vector<Matrix> slot_u_;            ///< U_{k+1} = exp(-i dt H_k)
    std::vector<Matrix> fwd_;               ///< fwd_[k] = U_k ... U_1
    Matrix a_, g_, g_next_, m_;
    linalg::ExpmScratch expm_;
};

} // namespace epoc::qoc
