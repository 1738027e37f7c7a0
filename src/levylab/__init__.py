"""Monte Carlo / PDE laboratory for jump-diffusion SDEs with singular drifts.

Subpackages by theme:

- ``levy_noise``      samplers and integral evaluators for the driving noise
- ``sde_model``       coefficient triples, hypothesis audits, presets
- ``integrator``      path simulation (small-jump flow, interlacing, ensembles)
- ``jump_grid``       blocks of base steps laid out over each path's jump-adapted grid
- ``pide_zvonkin``    1D integro-differential solvers and the drift-removing map
- ``ergodicity``      invariant measures, Lyapunov margins, TV decay rates
- ``density_lab``     reference stable densities, KDE, kernel bound checks
- ``inequality_lab``  occupation/exponential-moment/Gronwall/maximal-function checks
- ``cli``             config-driven experiment runner (``levylab`` entry point)
"""

from levylab.levy_noise import LevyModel, JumpEvent, levy_constant, sample_isotropic_stable, sample_large_jumps, tail_mass
from levylab.sde_model import SdeProblem, preset

__all__ = [
    "LevyModel",
    "JumpEvent",
    "SdeProblem",
    "levy_constant",
    "preset",
    "sample_isotropic_stable",
    "sample_large_jumps",
    "tail_mass",
]
