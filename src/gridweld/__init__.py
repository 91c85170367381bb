"""Infeasibility localization for combined transmission + distribution networks."""

from .netmodel import (Branch, Bus, CaseError, Cell, CouplingSpec, Generator,
                       Load, Network, Partition, Port, case_from_dict,
                       default_partition, load_case, load_partition)
from .coupling import (aggregate_current_d_to_t, distribute_dual_t_to_d,
                       distribute_voltage_t_to_d, poi_voltage_price,
                       port_dual_prices, round_trip_check)
from .ecf import CircuitProblem, PortBuild, build_problem
from .pdip import (KktState, NewtonSystem, SolverOptions, assemble_kkt,
                   newton_step, solve_centralized, solve_nlp, solve_subproblem)
from .gjn import (Coordinator, Subproblem, compare_modes,
                  gauss_boundary_update, spectral_radius_split)
from .admm import admm_solve
from .report import (SolveReport, build_report, export_heatmap,
                     localize_weak_nodes, write_report)

__version__ = "0.1.0"
