"""Shared coefficient rings and variable specs.

Rings compare by identity, so every module must use these singletons when it
wants its operators to interoperate.
"""

from .coeffring import PolyRing
from .weyl import VariableSpec

# Radial-parabolic chart (r, u).  Parameters: beta (spectral scale), mu
# (angular charge magnitude), p (parity), n (flag mark), lam (spectral
# indeterminate for characteristic polynomials).
RU = PolyRing(("r", "u", "beta", "mu", "p", "n", "lam"))
RU_SPEC = VariableSpec(RU, ("r", "u"))

# Cylindrical chart (r, rho, phi) used by the derivation pipeline, and its
# angular-momentum-sector restriction to (r, rho).
RRP = PolyRing(("r", "rho", "phi", "beta", "mu", "p", "E"))
RRP_SPEC = VariableSpec(RRP, ("r", "rho", "phi"))
RR2_SPEC = VariableSpec(RRP, ("r", "rho"))

# Cartesian chart with the radial distance adjoined as a square root, and
# the imaginary unit i (i^2 = -1) of p = -i*grad adjoined first, so it leads
# each monomial it is in.
R3 = PolyRing(("i", "x", "y", "z", "alpha", "E", "beta", "r"))
R3.define_adjunct("i", R3.const(-1))
R3.define_adjunct(
    "r",
    R3.var("x") * R3.var("x") + R3.var("y") * R3.var("y") + R3.var("z") * R3.var("z"),
)
R3_SPEC = VariableSpec(R3, ("x", "y", "z"))

# Cartesian chart with both cylindrical and spherical radii adjoined, used
# when reading a cometric off an embedding.
AMB = PolyRing(("x", "y", "z", "rho", "r"))
AMB.define_adjunct("rho", AMB.var("x") * AMB.var("x") + AMB.var("y") * AMB.var("y"))
AMB.define_adjunct(
    "r",
    AMB.var("x") * AMB.var("x") + AMB.var("y") * AMB.var("y") + AMB.var("z") * AMB.var("z"),
)
