"""The coupling-port transforms, spelled out on small numbers.

Run from the repository root:  python3 demos/05_coupling_port_algebra.py
"""

import numpy as np

from gridweld.coupling import (ALPHA_BLOCK, aggregate_current_d_to_t,
                               distribute_dual_t_to_d,
                               distribute_voltage_t_to_d, poi_voltage_price,
                               port_dual_prices, round_trip_check)
from gridweld.netmodel import CouplingSpec

port = CouplingSpec("poi", "head", s_base=5e5, v_base=7500.0)
print(f"port {port.key}: kappa = s_base / v_base = {port.kappa:.4f}")

print()
print("the 120-degree rotation as a real block on (R, I) pairs:")
print(np.array_str(ALPHA_BLOCK, precision=4))
print("cubed it is the identity; summed with its square and the identity")
print("it vanishes — the balanced three-phase cancellation.")

print()
print("voltage distribution: one positive-sequence phasor fans out to a")
print("balanced a/b/c set (phase b lagging by 120 degrees):")
v = distribute_voltage_t_to_d(port, 1.02, 0.01)
for k, ph in enumerate("abc"):
    c = complex(v[2 * k], v[2 * k + 1])
    print(f"  V_{ph} = {c:.5f}  (|V| = {abs(c):.5f}, "
          f"angle {np.degrees(np.angle(c)):8.3f} deg)")

print()
print("current aggregation: a balanced unit set collapses back to one")
print("positive-sequence current scaled by 1/kappa:")
i_abc = np.concatenate([[1.0, 0.0],
                        [np.cos(-2 * np.pi / 3), np.sin(-2 * np.pi / 3)],
                        [np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)]])
print(f"  aggregate = {complex(*aggregate_current_d_to_t(port, i_abc)):.6f}")
print(f"  1/kappa   = {1 / port.kappa:.6f}")

print()
print(f"distribute-then-aggregate defect on a random balanced state: "
      f"{round_trip_check(port, 0.97, -0.03):.2e}")

print()
print("dual transforms: the stated rotation form and the adjoint-exact")
print("prices the solver exchanges (the aggregation carries a 1/3):")
lam = (2.0, 0.0)
print(f"  stated form  {np.round(distribute_dual_t_to_d(port, *lam), 6)}")
print(f"  exact prices {np.round(port_dual_prices(port, *lam), 6)}")

print()
print("every map also takes a block, a column per input; on the identity it")
print("gives its matrix, which is what the coupling rows stamp:")
print(np.array_str(aggregate_current_d_to_t(port, np.eye(6)), precision=6))

print()
print("the POI-voltage price is the adjoint of the voltage distribution:")
g, dv = np.arange(1.0, 7.0), np.array([0.3, -0.2])
print(f"  <price(g), dv> = {poi_voltage_price(port, g) @ dv:.6f}")
print(f"  <g, dist(dv)>  = {g @ distribute_voltage_t_to_d(port, *dv):.6f}")
