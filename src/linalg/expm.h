// Matrix exponential via Pade approximation with scaling and squaring
// (Higham 2005, "The Scaling and Squaring Method for the Matrix Exponential
// Revisited", Algorithm 2.3). This is the workhorse of the GRAPE propagator:
// every time slot exponentiates -i*H*dt for a small (<= 27 dimensional in our
// benches) Hamiltonian.
//
// The approximant degree follows the 1-norm: the smallest m in {3, 5, 7, 9}
// whose theta_m bounds ||A||_1 (Higham's Table 2.3, the largest norms at which
// the degree-m approximant meets double-precision backward error), otherwise
// degree 13, scaled by 2^-s so the scaled norm is within theta_13 and squared
// back s times. GRAPE slot norms (||dt*H||_1 is 0.44..2.04 for 1..4 qubits at
// full drive) land on degree 7 or 9: 4 or 5 products plus the solve, where
// degree 13 costs 6.
#pragma once

#include "linalg/matrix.h"

namespace epoc::linalg {

/// Reusable temporaries for expm_into: once sized by a first call, repeated
/// exponentials of the same dimension allocate nothing.
struct ExpmScratch {
    Matrix scaled, a2, a4, a6, a8, u, v, tmp;
};

/// The Pade degree expm uses for a matrix of 1-norm `one_norm`: 3, 5, 7, 9
/// or 13 (degree 13 also scales when one_norm exceeds theta_13).
int expm_pade_degree(double one_norm);

/// exp(A) for a square complex matrix.
Matrix expm(const Matrix& a);

/// exp(A) into `out` (which must not alias `a`), with temporaries in `scratch`.
void expm_into(const Matrix& a, Matrix& out, ExpmScratch& scratch);

/// Convenience for quantum propagators: exp(-i * H * t).
Matrix exp_i(const Matrix& h, double t);

} // namespace epoc::linalg
