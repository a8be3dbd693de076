// GRAPE: GRadient Ascent Pulse Engineering (Khaneja et al. 2005).
//
// Optimizes piecewise-constant control amplitudes so the time-ordered product
// of slot propagators exp(-i*(H0 + sum_j u_jk H_j)*dt) matches a target
// unitary. Propagation and first-order gradients come from qoc::Propagator
// (propagator.h); Adam-style updates projected onto the amplitude bounds.
#pragma once

#include "qoc/hamiltonian.h"
#include "qoc/pulse.h"
#include "util/deadline.h"

#include <cstdint>

namespace epoc::qoc {

struct GrapeOptions {
    int max_iterations = 200;
    double learning_rate = 0.003;
    /// Stop when fidelity reaches this.
    double target_fidelity = 0.999;
    std::uint64_t seed = 1;
    /// Initial amplitude scale relative to each line's bound.
    double init_scale = 0.3;
    /// If the fidelity goes non-finite (exploding gradients, a poisoned
    /// Hamiltonian, an injected fault), re-randomize the amplitudes from a
    /// derived seed and restart, at most this many times; past the budget the
    /// optimizer returns its best finite iterate with
    /// Pulse::nonfinite_aborted set.
    int nonfinite_retries = 2;
    /// Optional compile deadline (non-owning; excluded from cache keys).
    /// Polled once per iteration: on expiry the optimizer returns best-so-far
    /// with Pulse::timed_out set instead of throwing.
    const util::Deadline* deadline = nullptr;
    /// Warm start (AccQOC's MST technique): amplitudes of a similar unitary's
    /// pulse, resampled to the requested slot count when lengths differ.
    /// Empty disables warm starting. The outer size must equal the
    /// Hamiltonian's control count; a mismatched shape falls back to a cold
    /// start and is reported via Pulse::warm_start_mismatch. A warm-seeded
    /// run that converges below target_fidelity (without timing out) is
    /// automatically re-run cold and the better pulse wins, so a bad seed can
    /// cost iterations but never fidelity.
    std::vector<std::vector<double>> warm_amplitudes;
};

/// Optimize a pulse of `num_slots` slots toward `target`. The target's
/// dimension must match the Hamiltonian's.
Pulse grape_optimize(const BlockHamiltonian& h, const Matrix& target, int num_slots,
                     const GrapeOptions& opt = {});

/// Propagate a pulse through the Hamiltonian: the realised unitary.
Matrix pulse_unitary(const BlockHamiltonian& h, const Pulse& p);

} // namespace epoc::qoc
