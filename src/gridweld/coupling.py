"""Circuit-theoretic coupling port between a positive-sequence transmission
bus and a three-phase distribution feeder head.

The 120-degree phase rotation is realized as a real 2x2 rotation block acting
on (real, imaginary) pairs, so every transform here is a small real-linear
map.  Convention: phase b lags a by 120 degrees, i.e. b carries the square of
the rotation and c carries the rotation itself when distributing a
positive-sequence quantity.

Ordering of six-vectors is always (a_R, a_I, b_R, b_I, c_R, c_I).

This module is the one home of the port's linear maps; ``gjn``, ``ecf``
and ``admm`` call the functions below.  Each takes the port's
:class:`~gridweld.netmodel.CouplingSpec` and a value, or a 2-D block with a
column per sensitivity; on an identity block a map gives its matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .netmodel import CouplingSpec

_C, _S = -0.5, math.sqrt(3.0) / 2.0

#: rotation by +120 degrees on an (R, I) pair
ALPHA_BLOCK = np.array([[_C, -_S], [_S, _C]])
#: rotation by -120 degrees (equals ALPHA_BLOCK @ ALPHA_BLOCK)
ALPHA2_BLOCK = np.array([[_C, _S], [-_S, _C]])

# aggregation row pattern per Eq.-style positive-sequence extraction:
# phase a unrotated, b rotated +120, c rotated -120
_AGG = np.hstack([np.eye(2), ALPHA_BLOCK, ALPHA2_BLOCK])          # 2 x 6
# distribution column pattern: a unrotated, b rotated -120, c rotated +120
_DIST = np.vstack([np.eye(2), ALPHA2_BLOCK, ALPHA_BLOCK])         # 6 x 2


def aggregate_current_d_to_t(spec: CouplingSpec, i_abc) -> np.ndarray:
    """Positive-sequence current seen by the transmission side.

    ``i_abc`` is the six-vector of per-phase port currents; the result is
    ``(I_a + rot*I_b + rot^2*I_c) / (3 kappa)`` expanded to rectangular form.
    """
    return _AGG @ np.asarray(i_abc, dtype=float) / (3.0 * spec.kappa)


def distribute_voltage_t_to_d(spec: CouplingSpec, v_r, v_i):
    """Balanced three-phase voltages from the transmission POI voltage.

    Output is in distribution per-unit: the nominal-voltage scaling of the
    physical-form transform cancels against the distribution voltage base,
    leaving the pure rotation.
    """
    return _DIST @ np.array([v_r, v_i])


def poi_voltage_price(spec: CouplingSpec, head_grad):
    """POI-voltage price from a gradient in the six head voltages: the
    adjoint of :func:`distribute_voltage_t_to_d`, whose transpose equals the
    aggregation pattern entry for entry (the form applied here)."""
    return _AGG @ np.asarray(head_grad, dtype=float)


def distribute_dual_t_to_d(spec: CouplingSpec, lam_r, lam_i):
    """Stated closed form of the coupling-bus dual relationship.

    Same rotation pattern as the voltage distribution, scaled by 1/kappa.
    The adjoint of the primal transforms as implemented here carries
    1/(3 kappa) instead; solvers use :func:`port_dual_prices` for that exact
    form, and this function preserves the published one for reference and
    diagnostics.
    """
    return _DIST @ np.array([lam_r, lam_i]) / spec.kappa


def port_dual_prices(spec: CouplingSpec, lam_r, lam_i):
    """Adjoint-exact distribution-side KCL duals implied by the T-side dual.

    Derived by eliminating the current-coupling constraint from the combined
    KKT system: the D-side coupling-bus duals equal the aggregation map's
    transpose applied to the T-side duals, i.e. rotation scaled by
    1/(3 kappa).  At a combined optimum this is the relationship that
    actually holds; it equals :func:`distribute_dual_t_to_d` divided by 3.
    """
    return _AGG.T @ np.array([lam_r, lam_i]) / (3.0 * spec.kappa)


def round_trip_check(spec: CouplingSpec, v_r: float, v_i: float,
                     load_g: float = 1.0, load_b: float = 0.0) -> float:
    """Consistency defect of distribute followed by aggregate.

    Distributes the positive-sequence voltage, draws a balanced current
    through a per-phase admittance, aggregates it back, and compares with the
    directly computed positive-sequence current.  Exactly balanced states
    must reproduce positive-sequence quantities up to roundoff.
    """
    v_abc = distribute_voltage_t_to_d(spec, v_r, v_i)
    y = np.array([[load_g, -load_b], [load_b, load_g]])
    i_abc = np.concatenate([y @ v_abc[2 * k:2 * k + 2] for k in range(3)])
    # physical-form aggregation of a balanced set divides out to I_1 = y V_1 / kappa
    got = aggregate_current_d_to_t(spec, i_abc)
    want = y @ np.array([v_r, v_i]) / spec.kappa
    return float(np.max(np.abs(got - want)))
