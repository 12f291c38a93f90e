"""Three-dimensional vector integrals: angular momentum, the two Laplace
vectors, their orderings, and the closed orthogonal algebra."""

from fractions import Fraction

from weylcalc.coulomb3d import (
    angular_momentum,
    b_candidates,
    hamiltonian,
    kinetic_lenz,
    laplacian,
    momentum,
    ordering_residuals,
    position,
    runge_lenz,
    spectral_lenz,
    sturm_operator,
    verify_b_orderings,
    verify_coulomb,
)
from weylcalc.spaces import R3, R3_SPEC
from weylcalc.weyl import format_op, identity, mul_op, partial

I = R3.var("i")  # the imaginary unit, adjoined to R3 with i^2 = -1


def test_full_suite_passes():
    results = verify_coulomb()
    assert len(results) == 18
    for res in results:
        assert res.passed, "%s: %s" % (res.check, res.witnesses)


def test_angular_momentum_algebra():
    L = angular_momentum()
    # [L_x, L_y] = i L_z and cyclic
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = L[a].commutator(L[b])
        assert (comm - L[c].scale(I)).is_zero()


def test_momentum_position_canonical_pairs():
    p = momentum()
    x = position()
    for i in range(3):
        for j in range(3):
            comm = p[i].commutator(x[j])
            if i == j:
                assert (comm - identity(R3_SPEC).scale(-I)).is_zero()
            else:
                assert comm.is_zero()


def test_hamiltonian_and_sturm_assembly():
    r = R3.var("r")
    E = R3.var("E")
    lap = laplacian()
    p = momentum()
    p2 = p[0].compose(p[0]) + p[1].compose(p[1]) + p[2].compose(p[2])
    # the Laplacian is minus the squared momentum
    assert (lap + p2).is_zero()
    # the fixed-energy operator is -(r/2) Lap - E r
    want = mul_op(R3_SPEC, r * Fraction(-1, 2)).compose(lap) - mul_op(R3_SPEC, E * r)
    assert (sturm_operator() - want).is_zero()


def test_kinetic_lenz_is_symmetrized_cross_product():
    L = angular_momentum()
    p = momentum()
    D = kinetic_lenz()
    eps = {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1),
           (1, 0): (2, -1), (2, 1): (0, -1), (0, 2): (1, -1)}
    for i in range(3):
        acc = None
        for (a, b), (c, sign) in eps.items():
            if c != i:
                continue
            term = (p[a].compose(L[b]) - L[a].compose(p[b])).scale(Fraction(sign, 2))
            acc = term if acc is None else acc + term
        assert (D[i] - acc).is_zero(), "component %d of the symmetrized vector" % i


def test_ordering_survey_names_single_survivor():
    res = verify_b_orderings()
    assert res.passed
    # the five discarded candidates report their residual sizes
    assert res.witnesses == [
        "coupling-left: [B,K] residual has 57 terms",
        "coupling-right: [B,K] residual has 48 terms",
        "coupling-sym: [B,K] residual has 57 terms",
        "spectral-left: [B,K] residual has 30 terms",
        "spectral-right: commutes with K",
        "spectral-sym: [B,K] residual has 30 terms",
    ]


def test_candidate_table_is_exhaustive():
    cands = dict(b_candidates())
    assert sorted(cands) == [
        "coupling-left",
        "coupling-right",
        "coupling-sym",
        "spectral-left",
        "spectral-right",
        "spectral-sym",
    ]
    # each candidate is a full three-component vector on the ambient chart
    for name, vec in cands.items():
        assert len(vec) == 3


def test_ordering_residuals_match_built_candidates():
    """The survey's Leibniz-rule residuals are the commutators of the built
    readings with K, component by component."""
    K = sturm_operator()
    cands = b_candidates()
    residuals = ordering_residuals()
    assert sorted(residuals) == sorted(cands)
    for name, vec in cands.items():
        assert len(residuals[name]) == 3
        for i in range(3):
            assert residuals[name][i] == vec[i].commutator(K), "%s component %d" % (name, i)


def test_spectral_vector_commutes_componentwise():
    K = sturm_operator()
    for i, Bi in enumerate(spectral_lenz()):
        assert Bi.commutator(K).is_zero(), "component %d" % i


def test_coupling_vector_commutes_with_hamiltonian():
    H = hamiltonian()
    A = runge_lenz()
    for i in range(3):
        assert A[i].commutator(H).is_zero(), "component %d" % i
