#include "qoc/propagator.h"

#include <stdexcept>
#include <utility>

namespace epoc::qoc {

cplx overlap(const Matrix& a, const Matrix& b) {
    cplx w{0.0, 0.0};
    const std::size_t n = a.rows() * a.cols();
    const cplx* pa = a.data();
    const cplx* pb = b.data();
    for (std::size_t i = 0; i < n; ++i) w += std::conj(pa[i]) * pb[i];
    return w;
}

Propagator::Propagator(const BlockHamiltonian& h, double dt)
    : drift_(h.drift), dt_(dt), dim_(h.drift.rows()), lines_(h.controls.size()) {
    for (std::size_t j = 0; j < h.controls.size(); ++j) {
        const Matrix& hj = h.controls[j].h;
        if (hj.rows() != dim_ || hj.cols() != dim_)
            throw std::invalid_argument("Propagator: control dimension mismatch");
        for (std::size_t r = 0; r < dim_; ++r)
            for (std::size_t c = 0; c < dim_; ++c)
                if (hj(r, c) != cplx{0.0, 0.0})
                    lines_[j].push_back({r * dim_ + c, c * dim_ + r, hj(r, c)});
    }
}

const Matrix& Propagator::propagate(const std::vector<std::vector<double>>& amps,
                                    std::size_t num_slots) {
    if (num_slots > 0) {
        if (amps.size() != lines_.size())
            throw std::invalid_argument("Propagator: amplitude rows != control lines");
        for (const std::vector<double>& row : amps)
            if (row.size() < num_slots)
                throw std::invalid_argument("Propagator: amplitude row too short");
    }
    num_slots_ = num_slots;
    if (slot_u_.size() < num_slots) slot_u_.resize(num_slots);
    if (fwd_.size() < num_slots + 1) fwd_.resize(num_slots + 1);
    fwd_[0] = Matrix::identity(dim_);
    for (std::size_t k = 0; k < num_slots; ++k) {
        // a = -i dt (H0 + sum_j u_jk H_j), assembled in place.
        a_ = drift_;
        cplx* pa = a_.data();
        for (std::size_t j = 0; j < lines_.size(); ++j) {
            const double u = amps[j][k];
            for (const Entry& e : lines_[j]) pa[e.at] += u * e.value;
        }
        a_ *= cplx{0.0, -dt_};
        linalg::expm_into(a_, slot_u_[k], expm_);
        if (k == 0) fwd_[1] = slot_u_[0];
        else linalg::multiply_into(slot_u_[k], fwd_[k], fwd_[k + 1]);
    }
    return fwd_[num_slots];
}

void Propagator::overlap_gradient(const Matrix& target, std::vector<std::vector<cplx>>& dw) {
    if (target.rows() != dim_ || target.cols() != dim_)
        throw std::invalid_argument("Propagator: target dimension mismatch");
    const std::size_t ns = num_slots_;
    dw.resize(lines_.size());
    for (std::vector<cplx>& row : dw) row.assign(ns, cplx{0.0, 0.0});
    if (lines_.empty() || ns == 0) return;

    const cplx scale{0.0, -dt_};
    g_ = target.dagger(); // G_ns = T^dag
    for (std::size_t k = ns; k-- > 0;) {
        // g_ holds G_{k+1} = T^dag U_ns ... U_{k+2}.
        linalg::multiply_into(fwd_[k + 1], g_, m_);
        const cplx* pm = m_.data();
        for (std::size_t j = 0; j < lines_.size(); ++j) {
            cplx tr{0.0, 0.0};
            for (const Entry& e : lines_[j]) tr += pm[e.at_t] * e.value;
            dw[j][k] = tr * scale;
        }
        if (k > 0) {
            linalg::multiply_into(g_, slot_u_[k], g_next_);
            std::swap(g_, g_next_);
        }
    }
}

} // namespace epoc::qoc
