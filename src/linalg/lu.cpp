#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace epoc::linalg {

LuDecomposition lu_decompose(const Matrix& a) {
    if (!a.is_square()) throw std::invalid_argument("lu_decompose: matrix not square");
    const std::size_t n = a.rows();
    LuDecomposition f;
    f.lu = a;
    f.perm.resize(n);
    std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot: pick the row with the largest magnitude in this column.
        std::size_t pivot = col;
        double best = std::abs(f.lu(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::abs(f.lu(r, col));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best == 0.0) {
            f.singular = true;
            continue;
        }
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c) std::swap(f.lu(col, c), f.lu(pivot, c));
            std::swap(f.perm[col], f.perm[pivot]);
            ++f.num_swaps;
        }
        const cplx d = f.lu(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const cplx factor = f.lu(r, col) / d;
            f.lu(r, col) = factor;
            if (factor == cplx{0.0, 0.0}) continue;
            for (std::size_t c = col + 1; c < n; ++c) f.lu(r, c) -= factor * f.lu(col, c);
        }
    }
    return f;
}

void solve_in_place(Matrix& a, Matrix& b) {
    if (!a.is_square()) throw std::invalid_argument("solve: matrix not square");
    const std::size_t n = a.rows();
    if (b.rows() != n) throw std::invalid_argument("solve: rhs rows mismatch");
    const std::size_t m = b.cols();
    cplx* pa = a.data();
    cplx* pb = b.data();
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        double best = std::abs(pa[col * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::abs(pa[r * n + col]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best == 0.0) throw std::domain_error("solve: singular matrix");
        if (pivot != col) {
            std::swap_ranges(pa + col * n + col, pa + col * n + n, pa + pivot * n + col);
            std::swap_ranges(pb + col * m, pb + col * m + m, pb + pivot * m);
        }
        const cplx d = pa[col * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const cplx factor = pa[r * n + col] / d;
            if (factor == cplx{0.0, 0.0}) continue;
            for (std::size_t c = col + 1; c < n; ++c) pa[r * n + c] -= factor * pa[col * n + c];
            for (std::size_t c = 0; c < m; ++c) pb[r * m + c] -= factor * pb[col * m + c];
        }
    }
    // Back substitution, one right-hand-side row at a time.
    for (std::size_t r = n; r-- > 0;) {
        cplx* xr = pb + r * m;
        for (std::size_t c = r + 1; c < n; ++c) {
            const cplx f = pa[r * n + c];
            const cplx* xc = pb + c * m;
            for (std::size_t j = 0; j < m; ++j) xr[j] -= f * xc[j];
        }
        const cplx d = pa[r * n + r];
        for (std::size_t j = 0; j < m; ++j) xr[j] /= d;
    }
}

Matrix solve(const Matrix& a, const Matrix& b) {
    Matrix lu = a;
    Matrix x = b;
    solve_in_place(lu, x);
    return x;
}

Matrix inverse(const Matrix& a) { return solve(a, Matrix::identity(a.rows())); }

cplx determinant(const Matrix& a) {
    const LuDecomposition f = lu_decompose(a);
    if (f.singular) return cplx{0.0, 0.0};
    cplx d = (f.num_swaps % 2 == 0) ? cplx{1.0, 0.0} : cplx{-1.0, 0.0};
    for (std::size_t i = 0; i < a.rows(); ++i) d *= f.lu(i, i);
    return d;
}

} // namespace epoc::linalg
