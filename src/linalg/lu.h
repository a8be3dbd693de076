// LU decomposition with partial pivoting for complex matrices, plus linear
// solves. The in-place solve is the last step of the Pade approximant in
// expm(); the factorization backs determinant().
#pragma once

#include "linalg/matrix.h"

namespace epoc::linalg {

/// LU factorization with partial pivoting: P*A = L*U.
/// L and U are packed into `lu` (unit diagonal of L implied); `perm[i]` is the
/// source row of row i after pivoting; `num_swaps` tracks parity for det().
struct LuDecomposition {
    Matrix lu;
    std::vector<std::size_t> perm;
    int num_swaps = 0;

    /// True if the matrix was numerically singular (a zero pivot was hit).
    bool singular = false;
};

/// Factor a square matrix. Never throws on singular input; check `.singular`.
LuDecomposition lu_decompose(const Matrix& a);

/// Solve A*X = B in place: `b` is overwritten with X, and `a` is consumed as
/// scratch (its contents afterwards are unspecified). Gaussian elimination
/// with partial pivoting on the augmented system; allocates nothing. Throws
/// std::domain_error if A is singular.
void solve_in_place(Matrix& a, Matrix& b);

/// Convenience: solve A*X = B directly. Throws std::domain_error if A is singular.
Matrix solve(const Matrix& a, const Matrix& b);

/// Matrix inverse via LU. Throws std::domain_error if singular.
Matrix inverse(const Matrix& a);

/// Determinant via LU.
cplx determinant(const Matrix& a);

} // namespace epoc::linalg
