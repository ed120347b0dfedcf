import math
import random
from fractions import Fraction

import pytest

from steadydim.cone import ConeStatus
from steadydim.mpoly import MPoly, VarId, all_minors_zero
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import (
    AnalysisReport,
    BudgetExhausted,
    ClassesConclusion,
    DimensionMismatch,
    RankTestStatus,
    SamplerConfig,
    VarietyConclusion,
    analyze,
    analyze_matrices,
    check_steady_state,
    derive_seed,
    evaluate_f,
    generic_rank_test,
    symbolic_jacobian_F,
    symbolic_jacobian_f,
)
from steadydim.ratmat import RatMatrix

from conftest import fixture_path, parse_certificate, random_network

CALCIUM = parse_network(fixture_path("calcium.crn").read_text())
EXAMPLE42 = parse_network(fixture_path("example42.crn").read_text())
EXAMPLE45 = parse_network(fixture_path("example45.crn").read_text())
EXAMPLE46 = parse_network(fixture_path("example46.crn").read_text())


def u(i, c=1):
    return MPoly.var(VarId.u(i), c)


class ScriptedRng:
    """random.Random stand-in returning a fixed cycle of values."""

    def __init__(self, values):
        self.values = list(values)
        self.i = 0

    def randint(self, lo, hi):
        v = self.values[self.i % len(self.values)]
        self.i += 1
        assert lo <= v <= hi, f"scripted value {v} outside [{lo}, {hi}]"
        return v


def sqrt_fraction(q: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational (test oracle)."""
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    assert num * num == q.numerator and den * den == q.denominator
    return Fraction(num, den)


def quadratic_positive_roots(k1: Fraction, k2: Fraction, k3: Fraction):
    """Exact positive roots of k1 t^2 - 2 k2 t + k3 = 0 (test oracle)."""
    disc = k2 * k2 - k1 * k3
    assert disc > 0
    root = sqrt_fraction(disc)
    return tuple(t for t in ((k2 - root) / k1, (k2 + root) / k1) if t > 0)


# -- symbolic matrices ----------------------------------------------------


def test_symbolic_jacobian_f_quadratic_network():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    g = mats.n_mat.kernel_basis()
    assert g.column(0) == (2, 1, 0)
    assert g.column(1) == (1, 0, -1)
    jac = symbolic_jacobian_f(mats, g)
    assert len(jac) == 1 and len(jac[0]) == 2
    assert jac[0][0] == u(0, 2) + u(1, 2)
    assert jac[0][1].is_zero()


def test_symbolic_jacobian_f_rank_one_network():
    mats = NetworkMatrices.from_network(EXAMPLE42)
    g = mats.n_mat.kernel_basis()
    assert g.column(0) == (1, 1, 2, 1)
    jac = symbolic_jacobian_f(mats, g)
    # rows 1 and 2 coincide and row 3 vanishes: symbolic rank is 1
    assert jac[0] == jac[1]
    assert all(p.is_zero() for p in jac[2])
    ok, _ = all_minors_zero(jac, 3)
    assert ok
    ok2, _ = all_minors_zero(jac, 2)
    assert ok2


def test_symbolic_jacobian_F_blocks():
    mats = NetworkMatrices.from_network(CALCIUM)
    g = mats.n_mat.kernel_basis()
    top = symbolic_jacobian_f(mats, g)
    full = symbolic_jacobian_F(mats, g)
    assert len(full) == 4 and all(len(row) == 4 for row in full)
    point = {VarId.u(t): Fraction(1) for t in range(3)}
    point.update({VarId.h(j): Fraction(j + 2) for j in range(4)})
    for i in range(mats.s):
        for j in range(mats.n):
            assert full[i][j].eval(point) == top[i][j].eval(point) * (j + 2)
    for i in range(mats.d):
        for j in range(mats.n):
            assert full[mats.s + i][j] == MPoly.const(mats.w_mat.at(i, j))


def test_symbolic_jacobian_F_specialization_has_full_rank():
    # specialize at Gu = (1,1,1,2,1,1), h = 1: a known full-rank point
    mats = NetworkMatrices.from_network(CALCIUM)
    g = mats.n_mat.kernel_basis()
    # solve g @ u0 = (1,1,1,2,1,1) exactly
    aug, _, _ = RatMatrix.from_rows(
        [list(g.row(i)) + [t] for i, t in enumerate([1, 1, 1, 2, 1, 1])]
    ).rref()
    u0 = [aug.at(i, g.cols) for i in range(g.cols)]
    assert g.mul_vec(u0) == (1, 1, 1, 2, 1, 1)
    point = {VarId.u(t): u0[t] for t in range(g.cols)}
    point.update({VarId.h(j): Fraction(1) for j in range(4)})
    full = symbolic_jacobian_F(mats, g)
    evaluated = RatMatrix.from_rows([[p.eval(point) for p in row] for row in full])
    assert evaluated.rank() == 4


def test_zero_reactant_matrix_gives_zero_jacobian():
    n_mat = RatMatrix.from_rows([[1, -1]])
    b = RatMatrix.zeros(2, 2)
    w = RatMatrix.from_rows([[1, 0]])
    mats = NetworkMatrices.from_matrices(n_mat, b, w)
    jac = symbolic_jacobian_f(mats, mats.n_mat.kernel_basis())
    assert all(p.is_zero() for row in jac for p in row)


# -- generic rank test ------------------------------------------------------


def test_generic_rank_constant_identity():
    ident = [[MPoly.const(1 if i == j else 0) for j in range(3)] for i in range(3)]
    verdict = generic_rank_test(ident, 3, SamplerConfig(seed=1), u_dim=0)
    assert verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert verdict.samples_tried == 1
    assert verdict.witness_u == ()


def test_generic_rank_quadratic_network():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    g = mats.n_mat.kernel_basis()
    verdict = generic_rank_test(
        symbolic_jacobian_f(mats, g), mats.s, SamplerConfig(seed=3), u_dim=2, g=g
    )
    assert verdict.nondegenerate
    assert len(verdict.witness_u) == 2
    assert verdict.witness_w == tuple(g.mul_vec(verdict.witness_u))
    assert verdict.witness_h is None


def test_generic_rank_all_degenerate_with_certificate():
    mats = NetworkMatrices.from_network(EXAMPLE42)
    g = mats.n_mat.kernel_basis()
    verdict = generic_rank_test(
        symbolic_jacobian_f(mats, g), mats.s, SamplerConfig(seed=4), u_dim=1, g=g
    )
    assert verdict.status is RankTestStatus.ALL_DEGENERATE
    assert verdict.witness_u is None
    assert verdict.certificate is not None
    # the generic rank is 1: one nonsingular 1x1 minor, and the 3x3 matrix
    # has (3-1)(3-1) = 4 minors of size 2 bordering it
    cert = parse_certificate(verdict.certificate, with_h=False)
    assert (cert.rank, cert.target) == (1, 3)
    assert len(verdict.certificate) == 2 + 4
    assert verdict.samples_tried == 5


def test_generic_rank_minor_hunt_path():
    # single entry u1 + u2: vanishes at the scripted first sample, then the
    # minor scan finds it nonzero and the hunt locates a witness
    matrix = [[u(0) + u(1)]]
    rng = ScriptedRng([1, -1, 2, 3])
    verdict = generic_rank_test(
        matrix, 1, SamplerConfig(seed=0, retries=1), u_dim=2, rng=rng
    )
    assert verdict.nondegenerate
    assert verdict.samples_tried == 2
    assert verdict.witness_u == (2, 3)


def test_generic_rank_bordering_grows_then_hunts():
    # every scripted sample lands below the generic rank 3: (2,1,1) has rank
    # 1, so the bordering 2x2 minor (u1-1)(u2-1) is hunted, skipping (1,1,1)
    # where it vanishes; (2,2,1) has rank 2, and the bordering 3x3 minor is
    # hunted to (3,3,3)
    z = MPoly.zero()
    matrix = [[u(0) - 1, z, z], [z, u(1) - 1, z], [z, z, u(2) - 1]]
    rng = ScriptedRng([2, 1, 1, 1, 1, 1, 2, 2, 1, 3, 3, 3])
    verdict = generic_rank_test(
        matrix, 3, SamplerConfig(seed=0, retries=1), u_dim=3, rng=rng
    )
    assert verdict.nondegenerate
    assert verdict.witness_u == (3, 3, 3)
    assert verdict.samples_tried == 4


def test_generic_rank_bordering_grows_then_certifies():
    # generic rank 2 < 3; the sample (2,1) has rank 1, so the loop grows the
    # basis at the hunted point (2,2) and certifies from there
    z = MPoly.zero()
    matrix = [[u(0) - 1, z, z], [z, u(1) - 1, z], [z, z, z]]
    rng = ScriptedRng([2, 1, 2, 2])
    verdict = generic_rank_test(
        matrix, 3, SamplerConfig(seed=0, retries=1), u_dim=2, rng=rng
    )
    assert verdict.status is RankTestStatus.ALL_DEGENERATE
    assert verdict.samples_tried == 2
    cert = parse_certificate(verdict.certificate, with_h=False)
    assert (cert.rank, cert.rows, cert.cols, cert.u) == (2, (0, 1), (0, 1), (2, 2))
    assert cert.minors == [((0, 1, 2), (0, 1, 2))]


def test_generic_rank_budget_exhausted():
    matrix = [[u(0) + u(1)]]
    rng = ScriptedRng([1, -1])
    cfg = SamplerConfig(seed=0, retries=1, pit_budget=5, hard_cap=7)
    with pytest.raises(BudgetExhausted):
        generic_rank_test(matrix, 1, cfg, u_dim=2, rng=rng)


def test_generic_rank_target_out_of_range():
    with pytest.raises(ValueError):
        generic_rank_test([[u(0)]], 2, SamplerConfig(), u_dim=1)


def test_generic_rank_scaling_invariance():
    # positive rescaling of kernel basis columns must not change statuses
    rng = random.Random(9)
    for net in (EXAMPLE42, EXAMPLE46, CALCIUM):
        mats = NetworkMatrices.from_network(net)
        g = mats.n_mat.kernel_basis()
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(g.cols)]
        scaled = RatMatrix.from_columns(
            [[x * scales[t] for x in g.column(t)] for t in range(g.cols)],
            rows=g.rows,
        )
        v1 = generic_rank_test(
            symbolic_jacobian_f(mats, g), mats.s, SamplerConfig(seed=5), u_dim=g.cols
        )
        v2 = generic_rank_test(
            symbolic_jacobian_f(mats, scaled), mats.s, SamplerConfig(seed=6), u_dim=g.cols
        )
        assert v1.status is v2.status


# -- pointwise evaluation ----------------------------------------------------


def test_evaluate_f_quadratic_at_unit_point():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    assert evaluate_f(mats, (1, 1, 1), (1, 1)) == (0,)


def test_evaluate_f_cone_witness_gives_all_ones_steady_state():
    for net in (CALCIUM, EXAMPLE42, EXAMPLE46, EXAMPLE45):
        mats = NetworkMatrices.from_network(net)
        from steadydim.cone import positive_kernel_vector

        res = positive_kernel_vector(mats.n_mat)
        assert res.exists
        value = evaluate_f(mats, res.witness, (1,) * mats.n)
        assert not any(value)


def test_evaluate_f_domain_errors():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    with pytest.raises(DimensionMismatch):
        evaluate_f(mats, (1, 1), (1, 1))
    with pytest.raises(DimensionMismatch):
        evaluate_f(mats, (1, 1, 1), (1, 0))
    with pytest.raises(DimensionMismatch):
        evaluate_f(mats, (1, -1, 1), (1, 1))


def test_evaluate_f_negative_exponents():
    n_mat = RatMatrix.from_rows([[1, -1]])
    b = RatMatrix.from_rows([[1, -1], [0, 1]])
    w = RatMatrix.from_rows([[0, 1]])
    mats = NetworkMatrices.from_matrices(n_mat, b, w)
    # f = k1 x1 - k2 x1^{-1} x2 at x = (2, 3): 2 k1 - 3/2 k2
    assert evaluate_f(mats, (1, 1), (2, 3)) == (Fraction(1, 2),)


def test_check_steady_state_degenerate_double_root():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    chk = check_steady_state(mats, (1, 1, 1), (1, 1))
    assert chk.residual_zero
    assert chk.jacobian == RatMatrix.zeros(1, 2)
    assert chk.stacked_rank == 1
    assert chk.degenerate


def test_check_steady_state_nondegenerate_roots():
    # rates with k2^2 != k1 k3 and rational positive roots, from the
    # exact quadratic oracle
    k = (Fraction(1), Fraction(5, 2), Fraction(6))
    roots = quadratic_positive_roots(*k)
    assert roots == (2, 3)
    mats = NetworkMatrices.from_network(EXAMPLE46)
    for x1 in roots:
        chk = check_steady_state(mats, k, (x1, Fraction(7)))
        assert chk.residual_zero
        assert not chk.degenerate
        assert chk.stacked_rank == 2


def test_check_steady_state_calcium_unit_point():
    mats = NetworkMatrices.from_network(CALCIUM)
    chk = check_steady_state(mats, (1, 1, 1, 2, 1, 1), (1, 1, 1, 1))
    assert chk.residual_zero
    assert chk.stacked_rank == 4
    assert not chk.degenerate


def test_check_steady_state_non_steady_point_still_reports():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    chk = check_steady_state(mats, (1, 1, 3), (1, 1))
    assert not chk.residual_zero
    assert chk.stacked_rank >= 1  # degeneracy fields computed anyway


# -- full analysis ------------------------------------------------------------


def test_analyze_calcium():
    report = analyze(CALCIUM, SamplerConfig(seed=11))
    assert report.dims == (4, 6, 3, 1)
    assert report.cone.exists
    assert report.f_verdict.nondegenerate
    assert report.F_verdict.nondegenerate
    assert report.conclusion_f is VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
    assert report.conclusion_F is ClassesConclusion.GENERICALLY_FINITE


def test_analyze_rank_one_network():
    report = analyze(EXAMPLE42, SamplerConfig(seed=12))
    assert report.cone.exists
    # the kernel is the line through (1,1,2,1)
    g = NetworkMatrices.from_network(EXAMPLE42).n_mat.kernel_basis()
    assert g.column(0) == (1, 1, 2, 1)
    assert report.f_verdict.status is RankTestStatus.ALL_DEGENERATE
    assert report.f_verdict.certificate is not None
    # the F verdict follows from the f certificate without being run
    assert report.F_verdict.status is RankTestStatus.ALL_DEGENERATE
    assert report.F_verdict.samples_tried == 0
    assert report.F_verdict.certificate == (
        "rank <= rank(f_test) + 0 < 3 + 0 = 3: implied by the f_test certificate",
    )
    assert report.conclusion_f is VarietyConclusion.EMPTY_OR_HIGHER_DIMENSIONAL
    assert report.conclusion_F is ClassesConclusion.GENERICALLY_EMPTY_OR_INFINITE


def test_analyze_quadratic_network():
    report = analyze(EXAMPLE46, SamplerConfig(seed=13))
    assert report.cone.exists
    assert report.f_verdict.nondegenerate
    assert report.F_verdict.nondegenerate
    assert report.conclusion_F is ClassesConclusion.GENERICALLY_FINITE


def test_analyze_conserved_value_mismatch_network():
    # steady states exist for all rates, but classes are generically missed
    report = analyze(EXAMPLE45, SamplerConfig(seed=14))
    assert report.cone.exists
    assert report.f_verdict.nondegenerate
    assert report.F_verdict.status is RankTestStatus.ALL_DEGENERATE
    assert report.conclusion_f is VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
    assert report.conclusion_F is ClassesConclusion.GENERICALLY_EMPTY_OR_INFINITE


def test_analyze_no_positive_steady_states():
    report = analyze(parse_network("X -> Y ; k1"), SamplerConfig(seed=15))
    assert report.cone.status is ConeStatus.EMPTY
    assert report.conclusion_f is VarietyConclusion.NO_POSITIVE_STEADY_STATES
    assert report.conclusion_F is ClassesConclusion.NO_POSITIVE_STEADY_STATES
    assert any("complex-torus" in note for note in report.notes)
    # with a trivial kernel the complex-level test is also rank deficient
    assert report.f_verdict.status is RankTestStatus.ALL_DEGENERATE


def test_analyze_rank_zero_system():
    n_mat = RatMatrix.zeros(0, 2)
    b = RatMatrix.from_rows([[1, 0], [0, 1]])
    w = RatMatrix.from_rows([[1, 0], [0, 1]])
    mats = NetworkMatrices.from_matrices(n_mat, b, w)
    report = analyze_matrices(mats, SamplerConfig(seed=16))
    assert report.dims == (2, 2, 0, 2)
    assert report.cone.exists
    assert report.f_verdict.nondegenerate  # empty system, trivially
    assert report.F_verdict.nondegenerate  # W alone has rank n
    assert report.conclusion_f is VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
    assert any("rank 0" in note for note in report.notes)


def test_analyze_deterministic_and_seed_sensitivity():
    r1 = analyze(CALCIUM, SamplerConfig(seed=42))
    r2 = analyze(CALCIUM, SamplerConfig(seed=42))
    assert r1 == r2
    r3 = analyze(CALCIUM, SamplerConfig(seed=43))
    assert r3.f_verdict.status is r1.f_verdict.status
    assert r3.conclusion_f is r1.conclusion_f


def test_derive_seed_stable():
    assert derive_seed(42, "f-test") == derive_seed(42, "f-test")
    assert derive_seed(42, "f-test") != derive_seed(42, "F-test")
    assert derive_seed(42, "f-test") != derive_seed(43, "f-test")


def _sympy_generic_rank(matrix) -> int:
    """Oracle: rank over the rational function field via sympy symbols."""
    import sympy

    def to_sympy(p: MPoly):
        expr = sympy.Integer(0)
        for mono, coeff in p.terms():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for var, e in mono:
                term *= sympy.Symbol(str(var)) ** e
            expr += term
        return expr

    if not matrix:
        return 0
    return sympy.Matrix([[to_sympy(p) for p in row] for row in matrix]).rank()


def test_generic_rank_matches_sympy_symbolic_rank():
    # the randomized-plus-symbolic decision agrees with a symbolic rank
    # computation over the function field, on random networks
    rng = random.Random(19)
    for _ in range(30):
        net = random_network(rng, max_species=5, max_reactions=6)
        mats = NetworkMatrices.from_network(net)
        g = mats.n_mat.kernel_basis()
        jac_f = symbolic_jacobian_f(mats, g)
        jac_F = symbolic_jacobian_F(mats, g, f_jacobian=jac_f)
        cfg = SamplerConfig(seed=rng.randint(0, 2**32))
        vf = generic_rank_test(jac_f, mats.s, cfg, u_dim=g.cols)
        vF = generic_rank_test(jac_F, mats.n, cfg, u_dim=g.cols, h_dim=mats.n)
        assert vf.nondegenerate == (_sympy_generic_rank(jac_f) == mats.s)
        assert vF.nondegenerate == (_sympy_generic_rank(jac_F) == mats.n)


def test_analyze_verdict_implication_random():
    # full-system nondegeneracy implies steady-state-system nondegeneracy;
    # exercised across random networks (checked internally on every report)
    rng = random.Random(17)
    for _ in range(20):
        net = random_network(rng)
        report = analyze(net, SamplerConfig(seed=rng.randint(0, 10**6)))
        if report.F_verdict.nondegenerate:
            assert report.f_verdict.nondegenerate
