import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from steadydim.mpoly import MPoly, all_minors_zero
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import (
    AnalysisReport,
    BorderingCertificate,
    BudgetExhausted,
    ClassesConclusion,
    DimensionMismatch,
    F_test_matrix,
    ImpliedByF,
    RankTestStatus,
    SamplerConfig,
    VarietyConclusion,
    analyze,
    analyze_matrices,
    check_steady_state,
    derive_seed,
    f_test_matrix,
    generic_rank_test,
    symbolic_jacobian_F,
    symbolic_jacobian_f,
)
from steadydim import cli, nondegen
from steadydim.ratmat import MODULUS, RatMatrix

from conftest import (
    NETWORK_MATRICES,
    diag,
    dict_rows,
    fixture_path,
    random_network,
)

CALCIUM = parse_network(fixture_path("calcium.crn").read_text())
EXAMPLE42 = parse_network(fixture_path("example42.crn").read_text())
EXAMPLE45 = parse_network(fixture_path("example45.crn").read_text())
EXAMPLE46 = parse_network(fixture_path("example46.crn").read_text())


def u(i, c=1):
    return MPoly.var(i, c)


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
    g = mats.g
    assert g.column(0) == (2, 1, 0)
    assert g.column(1) == (1, 0, -1)
    jac = symbolic_jacobian_f(mats)
    assert len(jac) == 1 and mats.n == 2
    assert jac[0][0] == u(0, 2) + u(1, 2)
    assert 1 not in jac[0]


def test_symbolic_jacobian_f_rank_one_network():
    mats = NetworkMatrices.from_network(EXAMPLE42)
    g = mats.g
    assert g.column(0) == (1, 1, 2, 1)
    jac = symbolic_jacobian_f(mats)
    # rows 1 and 2 coincide and row 3 vanishes: symbolic rank is 1
    assert jac[0] == jac[1]
    assert jac[2] == {}
    ok, _ = all_minors_zero(jac, mats.n, 3)
    assert ok
    ok2, _ = all_minors_zero(jac, mats.n, 2)
    assert ok2


def test_symbolic_jacobian_F_blocks():
    mats = NetworkMatrices.from_network(CALCIUM)
    top = symbolic_jacobian_f(mats)
    full = symbolic_jacobian_F(mats)
    assert len(full) == 4 and all(0 <= j < 4 for row in full for j in row)
    # u1..u3 are variables 0..2, h1..h4 are 3..6
    point = [1] * 3 + [j + 2 for j in range(4)]
    for i in range(mats.s):
        assert full[i].keys() == top[i].keys()
        for j, p in full[i].items():
            assert p.eval(point) == top[i][j].eval(point) * (j + 2)
    for i in range(mats.d):
        assert full[mats.s + i] == {j: MPoly.const(x) for j, x in mats.w_mat.entries(i).items()}


def test_symbolic_jacobian_F_specialization_has_full_rank():
    # specialize at Gu = (1,1,1,2,1,1), h = 1: a known full-rank point
    mats = NetworkMatrices.from_network(CALCIUM)
    g = mats.g
    # solve g @ u0 = (1,1,1,2,1,1) exactly
    aug, _, _ = RatMatrix.from_rows(
        [list(g.row(i)) + [t] for i, t in enumerate([1, 1, 1, 2, 1, 1])]
    ).rref()
    u0 = [aug.at(i, g.cols) for i in range(g.cols)]
    assert g.mul_vec(u0) == (1, 1, 1, 2, 1, 1)
    point = u0 + [1] * 4
    full = symbolic_jacobian_F(mats)
    evaluated = RatMatrix.from_entries(4, 4, [{j: p.eval(point) for j, p in row.items()} for row in full])
    assert evaluated.rank() == 4


def test_zero_reactant_matrix_gives_zero_jacobian():
    n_mat = RatMatrix.from_rows([[1, -1]])
    b = RatMatrix.zeros(2, 2)
    w = RatMatrix.from_rows([[1, 0]])
    mats = NetworkMatrices.from_matrices(n_mat, b, w)
    jac = symbolic_jacobian_f(mats)
    assert jac == [{}]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mats=NETWORK_MATRICES, data=st.data())
def test_sampled_matrices_equal_polynomial_matrices_at_the_sample(mats, data):
    # a certificate's base minor is chosen on the sampled matrix and claimed
    # nonzero at the sample for the polynomial matrix: the two must agree
    g = mats.g
    u_vals = data.draw(st.lists(st.integers(-50, 50), min_size=g.cols, max_size=g.cols))
    h_vals = data.draw(st.lists(st.integers(1, 50), min_size=mats.n, max_size=mats.n))
    point = u_vals + h_vals
    for sampled, symbolic in (
        (f_test_matrix(mats)(u_vals, None), symbolic_jacobian_f(mats)),
        (F_test_matrix(mats)(u_vals, h_vals), symbolic_jacobian_F(mats)),
    ):
        assert sampled == [{j: x for j, p in row.items() if (x := p.eval(point))} for row in symbolic]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mats=NETWORK_MATRICES, data=st.data())
def test_jacobian_rows_store_only_nonzeros_and_F_ends_with_w(mats, data):
    # small u (zero allowed) makes entries cancel; the rows must drop them
    g = mats.g
    u_vals = data.draw(st.lists(st.integers(-2, 2), min_size=g.cols, max_size=g.cols))
    h_vals = data.draw(st.lists(st.integers(1, 3), min_size=mats.n, max_size=mats.n))
    f_rows = f_test_matrix(mats)(u_vals, None)
    F_rows = F_test_matrix(mats)(u_vals, h_vals)
    symbolic = f_test_matrix(mats)([MPoly.var(t) for t in range(g.cols)], None)
    assert len(f_rows) == len(symbolic) == mats.s and len(F_rows) == mats.n
    for row in f_rows + F_rows + symbolic:
        assert all(row.values()) and list(row) == sorted(row)
        assert all(0 <= j < mats.n for j in row)
    assert F_rows[mats.s :] == [mats.w_mat.entries(i) for i in range(mats.w_mat.rows)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mats=NETWORK_MATRICES, data=st.data())
def test_check_steady_state_jacobian_is_the_explicit_product(mats, data):
    positive = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
    kappa = data.draw(st.lists(positive, min_size=mats.r, max_size=mats.r))
    x = data.draw(st.lists(nonzero, min_size=mats.n, max_size=mats.n))
    rates = [
        kappa[k] * math.prod(x[j] ** int(mats.b.at(j, k)) for j in range(mats.n))
        for k in range(mats.r)
    ]
    expected = mats.n_mat @ diag(rates) @ mats.b.transpose() @ diag([1 / v for v in x])
    assert check_steady_state(mats, kappa, x).jacobian == expected


# -- generic rank test ------------------------------------------------------


def test_generic_rank_constant_identity():
    def ident(u, h):
        return dict_rows([[1 if i == j else 0 for j in range(3)] for i in range(3)])

    verdict = generic_rank_test(ident, 3, SamplerConfig(seed=1), u_dim=0, cols=3)
    assert verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert verdict.samples_tried == 1
    assert verdict.witness_u == ()


def test_generic_rank_quadratic_network():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    verdict = generic_rank_test(f_test_matrix(mats), mats.s, SamplerConfig(seed=3), u_dim=2, cols=mats.n)
    assert verdict.nondegenerate
    assert len(verdict.witness_u) == 2
    assert verdict.witness_h is None


def test_analyze_fills_in_the_witness_w():
    # w is not stored: the writer and the text renderer compute G u from the report's matrices
    mats = NetworkMatrices.from_network(CALCIUM)
    report = analyze_matrices(mats, SamplerConfig(seed=3))
    written, text = cli.report_to_dict(report), cli.render_report_text(report)
    for key, verdict in (("f_test", report.f_verdict), ("F_test", report.F_verdict)):
        assert verdict.nondegenerate
        w = [str(x) for x in mats.g.mul_vec(verdict.witness_u)]
        assert written[key]["witness_w"] == w
        assert f"{key} witness w: {' '.join(w)}" in text.splitlines()


def test_generic_rank_samples_build_no_polynomials(monkeypatch):
    # samples are evaluated from the integer matrices; MPolys are built only
    # for the bordering minors, after the first sample falls short
    mats = NetworkMatrices.from_network(CALCIUM)
    g = mats.g

    def refuse(*args, **kwargs):
        raise AssertionError("MPoly built while sampling")

    monkeypatch.setattr(MPoly, "__init__", refuse)
    verdict = generic_rank_test(
        F_test_matrix(mats), mats.n, SamplerConfig(seed=11), u_dim=g.cols, h_dim=mats.n, cols=mats.n
    )
    assert verdict.nondegenerate


def test_generic_rank_all_degenerate_with_certificate():
    mats = NetworkMatrices.from_network(EXAMPLE42)
    verdict = generic_rank_test(f_test_matrix(mats), mats.s, SamplerConfig(seed=4), u_dim=1, cols=mats.n)
    assert verdict.status is RankTestStatus.ALL_DEGENERATE
    assert verdict.witness_u is None
    assert verdict.certificate is not None
    # the generic rank is 1: one nonsingular 1x1 minor, and the 3x3 matrix
    # has (3-1)(3-1) = 4 minors of size 2 bordering it
    cert = verdict.certificate
    assert isinstance(cert, BorderingCertificate)
    assert (len(cert.rows), len(cert.cols), verdict.target_rank) == (1, 1, 3)
    assert len(cert.sample_u) == 1 and cert.sample_h is None
    assert verdict.samples_tried == 1


def test_generic_rank_minor_hunt_path():
    # single entry u1 + u2: vanishes at the scripted first sample, then the
    # minor scan finds it nonzero and the hunt locates a witness
    matrix = lambda u, h: dict_rows([[u[0] + u[1]]])
    rng = ScriptedRng([1, -1, 2, 3])
    verdict = generic_rank_test(matrix, 1, SamplerConfig(seed=0), u_dim=2, cols=1, rng=rng)
    assert verdict.nondegenerate
    assert verdict.samples_tried == 2
    assert verdict.witness_u == (2, 3)


def test_generic_rank_bordering_grows_then_hunts(monkeypatch):
    # every scripted sample lands below the generic rank 3: the first sample
    # (2,1,1) has rank 1, so the bordering 2x2 minor (u1-1)(u2-1) is
    # hunted, skipping (1,1,1) where it vanishes; (2,2,1) has rank 2, and the
    # bordering 3x3 minor is hunted to (3,3,3)
    rounds = []
    real_all_minors_zero = nondegen.all_minors_zero
    monkeypatch.setattr(
        nondegen, "all_minors_zero", lambda *args, **kw: rounds.append(args) or real_all_minors_zero(*args, **kw)
    )
    matrix = lambda u, h: dict_rows([[u[0] - 1, 0, 0], [0, u[1] - 1, 0], [0, 0, u[2] - 1]])
    rng = ScriptedRng([2, 1, 1, 1, 1, 1, 2, 2, 1, 3, 3, 3])
    verdict = generic_rank_test(matrix, 3, SamplerConfig(seed=0), u_dim=3, cols=3, rng=rng)
    assert verdict.nondegenerate
    assert verdict.witness_u == (3, 3, 3)
    assert verdict.samples_tried == 4
    # each round's minor is the next basis: target - rho = 2 rounds
    assert [k for _, _, k in rounds] == [2, 3]


def test_generic_rank_bordering_grows_then_certifies():
    # generic rank 2 < 3; the first sample (2,1) has rank 1, so the loop
    # grows the basis at the hunted point (2,2) and certifies from there
    matrix = lambda u, h: dict_rows([[u[0] - 1, 0, 0], [0, u[1] - 1, 0], [0, 0, 0]])
    rng = ScriptedRng([2, 1, 2, 2])
    verdict = generic_rank_test(matrix, 3, SamplerConfig(seed=0), u_dim=2, cols=3, rng=rng)
    assert verdict.status is RankTestStatus.ALL_DEGENERATE
    assert verdict.samples_tried == 2
    assert verdict.certificate == BorderingCertificate((0, 1), (0, 1), (2, 2), None)


def test_generic_rank_certificate_basis_needs_no_extra_elimination(monkeypatch):
    # the case above: the first basis comes from the first sample's pass
    # modulo p and the next from the hunted minor, so nothing is row-reduced
    # over Q
    eliminated = []
    real_eliminate = RatMatrix._eliminate
    monkeypatch.setattr(RatMatrix, "_eliminate", lambda self: eliminated.append(self) or real_eliminate(self))
    matrix = lambda u, h: dict_rows([[u[0] - 1, 0, 0], [0, u[1] - 1, 0], [0, 0, 0]])
    verdict = generic_rank_test(
        matrix, 3, SamplerConfig(seed=0), u_dim=2, cols=3, rng=ScriptedRng([2, 1, 2, 2])
    )
    assert verdict.status is RankTestStatus.ALL_DEGENERATE and verdict.samples_tried == 2
    assert eliminated == []


def test_generic_rank_certificate_from_equal_samples_eliminates_once(monkeypatch):
    # a first sample whose rank mod p is the generic rank: the certificate
    # is its basis mod p, with no hunt and no elimination over Q
    eliminated = []
    real_eliminate = RatMatrix._eliminate
    monkeypatch.setattr(RatMatrix, "_eliminate", lambda self: eliminated.append(self) or real_eliminate(self))
    matrix = lambda u, h: dict_rows([[u[0] - 1, 0, 0], [0, u[1] - 1, 0], [0, 0, 0]])
    verdict = generic_rank_test(matrix, 3, SamplerConfig(seed=0), u_dim=2, cols=3, rng=ScriptedRng([2, 2]))
    assert verdict.status is RankTestStatus.ALL_DEGENERATE and verdict.samples_tried == 1
    assert verdict.certificate == BorderingCertificate((0, 1), (0, 1), (2, 2), None)
    assert eliminated == []


def test_sample_rank_and_profile_run_no_back_substitution(monkeypatch):
    # rank, pivot columns and the left kernel (from the row-rank profile)
    # come from the forward pass; the RREF back-substitution runs once, on
    # first use of a basis
    substituted = []
    real_back_substitute = RatMatrix._back_substitute
    monkeypatch.setattr(
        RatMatrix, "_back_substitute", lambda self: substituted.append(self) or real_back_substitute(self)
    )
    mats = NetworkMatrices.from_network(CALCIUM)
    substituted.clear()
    rows = f_test_matrix(mats)((2, -3, 5), None)
    sample = RatMatrix.from_entries(len(rows), mats.n, rows)
    assert (sample.rank(), sample.pivot_columns(), sample.left_kernel_basis().rows) == (3, (0, 1, 2), 0)
    assert substituted == []
    sample.rref()
    sample.kernel_basis()
    sample.row_basis()
    assert substituted == [sample]


def test_generic_rank_budget_exhausted():
    matrix = lambda u, h: dict_rows([[u[0] + u[1]]])
    rng = ScriptedRng([1, -1])
    cfg = SamplerConfig(seed=0, hard_cap=7)
    with pytest.raises(BudgetExhausted):
        generic_rank_test(matrix, 1, cfg, u_dim=2, cols=1, rng=rng)


def test_generic_rank_target_out_of_range():
    with pytest.raises(ValueError):
        generic_rank_test(lambda u, h: dict_rows([[u[0]]]), 2, SamplerConfig(), u_dim=1, cols=1)
    with pytest.raises(ValueError):
        generic_rank_test(lambda u, h: dict_rows([[u[0]]]), -1, SamplerConfig(), u_dim=1, cols=1)


def test_generic_rank_target_below_the_generic_rank():
    # a witness needs rank >= target, not equal: the first sample decides
    verdict = generic_rank_test(lambda u, h: dict_rows([[u[0]]]), 0, SamplerConfig(seed=1), u_dim=1, cols=1)
    assert verdict.nondegenerate and verdict.samples_tried == 1
    matrix = lambda u, h: dict_rows([[u[0], 0, 0], [0, u[1], 0], [0, 0, 0]])
    verdict = generic_rank_test(matrix, 1, SamplerConfig(seed=1), u_dim=2, cols=3)
    assert verdict.nondegenerate and verdict.samples_tried == 1


# -- the modular shortcut ------------------------------------------------------


def _exact_rank(rows) -> int:
    """Oracle: sympy's rank of a matrix of ints and Fractions."""
    if not rows or not rows[0]:
        return 0
    return sympy.Matrix(
        [[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows]
    ).rank()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_modular_shortcut_never_returns_a_wrong_witness(data):
    # left diag(u) right with scaled rows: generic rank at most ``inner``; a
    # row times p vanishes modulo p, so the rank mod p can fall short of the
    # exact rank and leave the sample to the minors
    rows, cols, inner = (data.draw(st.integers(1, 4)) for _ in range(3))
    left = [[data.draw(st.integers(-3, 3)) for _ in range(inner)] for _ in range(rows)]
    right = [[data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(inner)]
    scales = st.sampled_from([1, 1, MODULUS, Fraction(1, MODULUS), Fraction(MODULUS, 7)])
    scale = [data.draw(scales) for _ in range(rows)]
    target = data.draw(st.integers(0, min(rows, cols)))

    def dense(u):
        return [
            [scale[i] * sum(left[i][t] * u[t] * right[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]

    verdict = generic_rank_test(
        lambda u, h: dict_rows(dense(u)), target, SamplerConfig(seed=data.draw(st.integers(0, 99))),
        u_dim=inner, cols=cols,
    )
    if verdict.nondegenerate:
        assert _exact_rank(dense(verdict.witness_u)) >= target
        return
    # the named minor is nonzero at the sample, and every target x target
    # minor of the polynomial matrix is zero
    cert = verdict.certificate
    assert len(cert.rows) == len(cert.cols) < target and cert.sample_h is None
    sample = [[dense(cert.sample_u)[i][j] for j in cert.cols] for i in cert.rows]
    assert sympy.Matrix(len(sample), len(sample), lambda i, j: sympy.Rational(sample[i][j])).det() != 0
    symbolic = sympy.Matrix(dense(sympy.symbols(f"u:{inner}")))
    for r in itertools.combinations(range(rows), target):
        for c in itertools.combinations(range(cols), target):
            assert sympy.expand(symbolic.extract(list(r), list(c)).det()) == 0


def test_modular_shortcut_falls_back_when_the_rank_mod_p_falls_short():
    # every entry is a multiple of p, so the rank mod p is 0 < 1 = the exact
    # rank: the first sample falls short, and the hunted 1 x 1 minor is the
    # second sample
    verdict = generic_rank_test(
        lambda u, h: dict_rows([[MODULUS * u[0]]]), 1, SamplerConfig(seed=2), u_dim=1, cols=1
    )
    assert verdict.nondegenerate and verdict.samples_tried == 2
    # a row over p is scaled by p first, so its rank mod p is 1
    verdict = generic_rank_test(
        lambda u, h: dict_rows([[Fraction(u[0], MODULUS)]]), 1, SamplerConfig(seed=2), u_dim=1, cols=1
    )
    assert verdict.nondegenerate and verdict.samples_tried == 1


def test_modular_shortcut_needs_the_full_rank_target():
    # rank 2 everywhere, rank 1 modulo p: the rank mod p proves a target of 1
    # at the first sample; a target of 2 needs the hunted bordering minor,
    # the second sample.  Either way the witness's exact rank is 2
    dense = lambda u: [[MODULUS * u[0], 0, 0], [0, u[1], 0], [0, 0, 0]]
    for target, samples in ((1, 1), (2, 2)):
        verdict = generic_rank_test(
            lambda u, h: dict_rows(dense(u)), target, SamplerConfig(seed=2), u_dim=2, cols=3
        )
        assert verdict.nondegenerate and verdict.samples_tried == samples
        assert _exact_rank(dense(verdict.witness_u)) == 2 >= target


def test_generic_rank_scaling_invariance():
    # positive rescaling of kernel basis columns must not change statuses
    rng = random.Random(9)
    for net in (EXAMPLE42, EXAMPLE46, CALCIUM):
        mats = NetworkMatrices.from_network(net)
        g = mats.g
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(g.cols)]
        matrix = f_test_matrix(mats)
        v1 = generic_rank_test(matrix, mats.s, SamplerConfig(seed=5), u_dim=g.cols, cols=mats.n)
        # G diag(scales) u = G (scales * u): scaling G's columns is scaling u
        v2 = generic_rank_test(
            lambda u, h: matrix([x * c for x, c in zip(u, scales)], h),
            mats.s,
            SamplerConfig(seed=6),
            u_dim=g.cols,
            cols=mats.n,
        )
        assert v1.status is v2.status


# -- pointwise evaluation ----------------------------------------------------


def test_evaluate_f_quadratic_at_unit_point():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    assert check_steady_state(mats, (1, 1, 1), (1, 1)).residual_zero


def test_evaluate_f_cone_witness_gives_all_ones_steady_state():
    for net in (CALCIUM, EXAMPLE42, EXAMPLE46, EXAMPLE45):
        mats = NetworkMatrices.from_network(net)
        from steadydim.cone import positive_kernel_vector

        res = positive_kernel_vector(mats.n_mat)
        assert res.exists
        assert check_steady_state(mats, res.witness, (1,) * mats.n).residual_zero


def test_evaluate_f_domain_errors():
    mats = NetworkMatrices.from_network(EXAMPLE46)
    with pytest.raises(DimensionMismatch):
        check_steady_state(mats, (1, 1), (1, 1))
    with pytest.raises(DimensionMismatch):
        check_steady_state(mats, (1, 1, 1), (1, 0))
    with pytest.raises(DimensionMismatch):
        check_steady_state(mats, (1, -1, 1), (1, 1))


def test_evaluate_f_negative_exponents():
    n_mat = RatMatrix.from_rows([[1, -1]])
    b = RatMatrix.from_rows([[1, -1], [0, 1]])
    w = RatMatrix.from_rows([[0, 1]])
    mats = NetworkMatrices.from_matrices(n_mat, b, w)
    # f = k1 x1 - k2 x1^{-1} x2 at x = (2, 3): 2 k1 - 3/2 k2
    assert check_steady_state(mats, (3, 4), (2, 3)).residual_zero
    assert not check_steady_state(mats, (1, 1), (2, 3)).residual_zero


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
    assert report.F_verdict.certificate == ImpliedByF(0)
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
    assert not report.cone.exists
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


def _sympy_generic_rank(matrix, ncols: int, nvars: int) -> int:
    """Oracle: rank over the rational function field via sympy symbols."""
    if not matrix:
        return 0
    point = sympy.symbols(f"x0:{nvars}")
    return sympy.Matrix(
        [[sympy.sympify(row[j].eval(point)) if j in row else 0 for j in range(ncols)] for row in matrix]
    ).rank()


def test_generic_rank_matches_sympy_symbolic_rank():
    # the randomized-plus-symbolic decision agrees with a symbolic rank
    # computation over the function field, on random networks
    rng = random.Random(19)
    for _ in range(30):
        net = random_network(rng, max_species=5, max_reactions=6)
        mats = NetworkMatrices.from_network(net)
        g = mats.g
        jac_f = symbolic_jacobian_f(mats)
        jac_F = symbolic_jacobian_F(mats)
        cfg = SamplerConfig(seed=rng.randint(0, 2**32))
        vf = generic_rank_test(f_test_matrix(mats), mats.s, cfg, u_dim=g.cols, cols=mats.n)
        vF = generic_rank_test(F_test_matrix(mats), mats.n, cfg, u_dim=g.cols, h_dim=mats.n, cols=mats.n)
        assert vf.nondegenerate == (_sympy_generic_rank(jac_f, mats.n, g.cols) == mats.s)
        assert vF.nondegenerate == (_sympy_generic_rank(jac_F, mats.n, g.cols + mats.n) == mats.n)


def test_analyze_verdict_implication_random():
    # full-system nondegeneracy implies steady-state-system nondegeneracy;
    # exercised across random networks (checked internally on every report)
    rng = random.Random(17)
    for _ in range(20):
        net = random_network(rng)
        report = analyze(net, SamplerConfig(seed=rng.randint(0, 10**6)))
        if report.F_verdict.nondegenerate:
            assert report.f_verdict.nondegenerate

