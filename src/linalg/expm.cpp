#include "linalg/expm.h"

#include "linalg/lu.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <utility>

namespace epoc::linalg {

namespace {

// Pade coefficients b_0..b_m of the degree-m approximant (Higham 2005,
// Section 2 and Table 2.3).
constexpr std::array<double, 4> kB3 = {120.0, 60.0, 12.0, 1.0};
constexpr std::array<double, 6> kB5 = {30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0};
constexpr std::array<double, 8> kB7 = {17297280.0, 8648640.0, 1995840.0, 277200.0,
                                       25200.0,    1512.0,    56.0,      1.0};
constexpr std::array<double, 10> kB9 = {17643225600.0, 8821612800.0, 2075673600.0,
                                        302702400.0,   30270240.0,   2162160.0,
                                        110880.0,      3960.0,       90.0,
                                        1.0};
constexpr std::array<double, 14> kB13 = {
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0,   10559470521600.0,    670442572800.0,     33522128640.0,
    1323241920.0,        40840800.0,          960960.0,           16380.0,
    182.0,               1.0};

// theta_m: the largest 1-norm for which the degree-m approximant meets
// double-precision accuracy without scaling (Higham 2005, Table 2.3).
constexpr double kTheta3 = 1.495585217958292e-2;
constexpr double kTheta5 = 2.539398330063230e-1;
constexpr double kTheta7 = 9.504178996162932e-1;
constexpr double kTheta9 = 2.097847961257068;
constexpr double kTheta13 = 5.371920351148152;

struct Term {
    double c;
    const Matrix* p;
};

/// out += c0 * I + sum_i c_i * P_i over same-shape square matrices.
void add_poly(Matrix& out, double c0, std::initializer_list<Term> terms) {
    const std::size_t n = out.rows();
    cplx* o = out.data();
    for (const Term& t : terms) {
        const cplx* p = t.p->data();
        for (std::size_t i = 0; i < n * n; ++i) o[i] += t.c * p[i];
    }
    for (std::size_t i = 0; i < n; ++i) o[i * n + i] += c0;
}

void set_zero(Matrix& m, std::size_t n) {
    if (m.rows() != n || m.cols() != n) m = Matrix(n, n);
    else std::fill(m.data(), m.data() + n * n, cplx{0.0, 0.0});
}

} // namespace

int expm_pade_degree(double one_norm) {
    if (one_norm <= kTheta3) return 3;
    if (one_norm <= kTheta5) return 5;
    if (one_norm <= kTheta7) return 7;
    if (one_norm <= kTheta9) return 9;
    return 13;
}

void expm_into(const Matrix& a, Matrix& out, ExpmScratch& s) {
    if (!a.is_square()) throw std::invalid_argument("expm: matrix not square");
    const std::size_t n = a.rows();
    if (n <= 1) {
        out = a;
        if (n == 1) out(0, 0) = std::exp(a(0, 0));
        return;
    }

    const double norm = a.one_norm();
    const int m = expm_pade_degree(norm);
    int squarings = 0;
    const Matrix* x = &a;
    if (m == 13 && norm > kTheta13) {
        squarings = static_cast<int>(std::ceil(std::log2(norm / kTheta13)));
        s.scaled = a;
        s.scaled *= cplx{std::ldexp(1.0, -squarings), 0.0};
        x = &s.scaled;
    }

    // r_m(X) = (V - U)^{-1} (V + U), U holding the odd and V the even powers.
    multiply_into(*x, *x, s.a2);
    if (m >= 5) multiply_into(s.a2, s.a2, s.a4);
    if (m >= 7) multiply_into(s.a2, s.a4, s.a6);
    if (m == 9) multiply_into(s.a4, s.a4, s.a8);
    set_zero(s.tmp, n);
    set_zero(s.v, n);
    switch (m) {
    case 3:
        add_poly(s.tmp, kB3[1], {{kB3[3], &s.a2}});
        add_poly(s.v, kB3[0], {{kB3[2], &s.a2}});
        break;
    case 5:
        add_poly(s.tmp, kB5[1], {{kB5[3], &s.a2}, {kB5[5], &s.a4}});
        add_poly(s.v, kB5[0], {{kB5[2], &s.a2}, {kB5[4], &s.a4}});
        break;
    case 7:
        add_poly(s.tmp, kB7[1], {{kB7[3], &s.a2}, {kB7[5], &s.a4}, {kB7[7], &s.a6}});
        add_poly(s.v, kB7[0], {{kB7[2], &s.a2}, {kB7[4], &s.a4}, {kB7[6], &s.a6}});
        break;
    case 9:
        add_poly(s.tmp, kB9[1],
                 {{kB9[3], &s.a2}, {kB9[5], &s.a4}, {kB9[7], &s.a6}, {kB9[9], &s.a8}});
        add_poly(s.v, kB9[0],
                 {{kB9[2], &s.a2}, {kB9[4], &s.a4}, {kB9[6], &s.a6}, {kB9[8], &s.a8}});
        break;
    default:
        // Degree 13 folds A^8..A^12 into products with A^6:
        // U = A [A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I]
        // V =    A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
        set_zero(s.u, n);
        add_poly(s.u, 0.0, {{kB13[13], &s.a6}, {kB13[11], &s.a4}, {kB13[9], &s.a2}});
        multiply_into(s.a6, s.u, s.tmp);
        add_poly(s.tmp, kB13[1], {{kB13[7], &s.a6}, {kB13[5], &s.a4}, {kB13[3], &s.a2}});
        set_zero(s.u, n);
        add_poly(s.u, 0.0, {{kB13[12], &s.a6}, {kB13[10], &s.a4}, {kB13[8], &s.a2}});
        multiply_into(s.a6, s.u, s.v);
        add_poly(s.v, kB13[0], {{kB13[6], &s.a6}, {kB13[4], &s.a4}, {kB13[2], &s.a2}});
        break;
    }
    multiply_into(*x, s.tmp, s.u);

    // out = V + U, tmp = V - U, then out <- tmp^{-1} out.
    out = s.v;
    out += s.u;
    s.tmp = s.v;
    s.tmp -= s.u;
    solve_in_place(s.tmp, out);
    for (int k = 0; k < squarings; ++k) {
        multiply_into(out, out, s.tmp);
        std::swap(out, s.tmp);
    }
}

Matrix expm(const Matrix& a) {
    ExpmScratch scratch;
    Matrix out;
    expm_into(a, out, scratch);
    return out;
}

Matrix exp_i(const Matrix& h, double t) {
    Matrix a = h;
    a *= cplx{0.0, -t};
    return expm(a);
}

} // namespace epoc::linalg
