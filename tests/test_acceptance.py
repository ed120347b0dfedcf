"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All equality criteria are exact (Fraction comparisons, zero tolerance);
runtime budgets are enforced with perf_counter.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from steadydim import cli
from steadydim.cone import positive_kernel_vector
from steadydim.mpoly import MPoly, det
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import (
    ClassesConclusion,
    RankTestStatus,
    SamplerConfig,
    VarietyConclusion,
    analyze,
    analyze_matrices,
    check_steady_state,
    jacobian,
    symbolic_jacobian_F,
    symbolic_jacobian_f,
)
from steadydim.ratmat import RatMatrix

from conftest import (
    CALCIUM_B,
    CALCIUM_GAMMA,
    bordering_minors,
    cofactor_det,
    dict_rows,
    example42_family_text,
    fixture_path,
    random_network,
    random_rational_matrix,
)

SAMPLE_BOUND = 65536

# cumulative timings of the criterion-5 property suites
_property_elapsed: dict[str, float] = {}


def _report(criterion: str, label: str, elapsed: float, budget: float):
    status = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"acceptance criterion {criterion}: {status} - {label} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


# points list the values of u1.. and then h1..: the variable numbering of
# the symbolic matrices


def _witness_point(verdict):
    return verdict.witness_u + (verdict.witness_h or ())


def _random_point(rng, u_dim, h_dim=None):
    point = []
    for _ in range(u_dim):
        v = 0
        while v == 0:
            v = rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)
        point.append(v)
    return point + [rng.randint(1, SAMPLE_BOUND) for _ in range(h_dim or 0)]


def _eval_rank(matrix, point, ncols):
    rows = [{j: p.eval(point) for j, p in row.items()} for row in matrix]
    return RatMatrix.from_entries(len(rows), ncols, rows).rank()


def test_criterion_1_calcium_exact(capsys):
    t0 = time.perf_counter()
    net = parse_network(fixture_path("calcium.crn").read_text())
    mats = NetworkMatrices.from_network(net)
    # matrices reproduce the reference gamma and b exactly
    assert mats.gamma == RatMatrix.from_rows(CALCIUM_GAMMA)
    assert mats.b == RatMatrix.from_rows(CALCIUM_B)
    assert cli.matrices_to_dict(net, mats)["gamma"] == CALCIUM_GAMMA
    assert mats.gamma.rank() == 3
    assert mats.w_mat == RatMatrix.from_rows([[0, 0, 1, 1]])
    # stacked matrix [n_mat diag(w) b^T ; w_mat] has rank 4 at w = (1,1,1,2,1,1)
    # (n_mat is a row basis of gamma, so gamma's stacked matrix has the same rank)
    w = (1, 1, 1, 2, 1, 1)
    stacked = RatMatrix.from_entries(mats.s, mats.n, jacobian(mats, w)).vstack(mats.w_mat)
    assert stacked.rank() == 4
    report = analyze(net, SamplerConfig(seed=2024))
    assert report.cone.exists
    assert report.f_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert report.F_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert report.conclusion_f is VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
    assert report.conclusion_F is ClassesConclusion.GENERICALLY_FINITE
    text = cli.render_report_text(report)
    assert "conclusion_f: generic dimension n-s = 1" in text
    assert "conclusion_F: generically finite" in text
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report("1", "calcium worked example", elapsed, 1.0)


def test_criterion_2_rank_deficient_network(capsys):
    t0 = time.perf_counter()
    net = parse_network(fixture_path("example42.crn").read_text())
    mats = NetworkMatrices.from_network(net)
    cone = positive_kernel_vector(mats.n_mat)
    assert cone.exists
    # the kernel is one line: the witness must be proportional to (1,1,2,1)
    w = cone.witness
    assert mats.n_mat.mul_vec(w) == (0,) * mats.s
    scale = w[0]
    assert w == tuple(scale * Fraction(c) for c in (1, 1, 2, 1))
    report = analyze(net, SamplerConfig(seed=2024))
    assert report.f_verdict.status is RankTestStatus.ALL_DEGENERATE
    assert report.f_verdict.certificate is not None
    cert = report.f_verdict.certificate
    # the certificate proves rank exactly 1 < 3: its 1x1 minor is nonzero
    # at its sample and all (3-1)(3-1) = 4 minors bordering it are the zero
    # polynomial (re-derived via determinants here)
    assert (len(cert.rows), report.f_verdict.target_rank) == (1, 3)
    minors = list(bordering_minors(mats.s, mats.n, (cert.rows, cert.cols)))
    assert len(minors) == 4
    jac = symbolic_jacobian_f(mats)
    assert jac[cert.rows[0]][cert.cols[0]].eval(cert.sample_u) != 0
    for rows, cols in minors:
        assert det([jac[i] for i in rows], cols).is_zero()
    assert det(jac, range(mats.n)).is_zero()
    assert report.conclusion_f is VarietyConclusion.EMPTY_OR_HIGHER_DIMENSIONAL
    text = cli.render_report_text(report)
    assert "conclusion_f: empty or higher-dimensional for almost all rate constants" in text
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report("2", "generically empty network certificate", elapsed, 1.0)


def test_criterion_3_degenerate_vs_nondegenerate_points(capsys):
    t0 = time.perf_counter()
    path = str(fixture_path("example46.crn"))
    net = parse_network(fixture_path("example46.crn").read_text())
    report = analyze(net, SamplerConfig(seed=2024))
    assert report.f_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS

    code = cli.main(["check-point", path, "--kappa", "1,1,1", "--x", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "steady state: yes; degenerate: yes" in out

    # rates with k2^2 != k1 k3: exact quadratic oracle k1 t^2 - 2 k2 t + k3
    k1, k2, k3 = Fraction(1), Fraction(5, 2), Fraction(6)
    assert k2 * k2 != k1 * k3
    disc = k2 * k2 - k1 * k3
    import math

    root_num = math.isqrt(disc.numerator)
    root_den = math.isqrt(disc.denominator)
    assert root_num**2 == disc.numerator and root_den**2 == disc.denominator
    x1 = (k2 + Fraction(root_num, root_den)) / k1
    assert k1 * x1 * x1 - 2 * k2 * x1 + k3 == 0 and x1 > 0
    code = cli.main(
        ["check-point", path, "--kappa", f"{k1},{k2},{k3}", "--x", f"{x1},1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "steady state: yes; degenerate: no" in out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report("3", "pointwise degeneracy flips with the discriminant", elapsed, 1.0)


def test_criterion_4_weakly_reversible(capsys):
    t0 = time.perf_counter()
    path = str(fixture_path("weakly_reversible.crn"))
    net = parse_network(fixture_path("weakly_reversible.crn").read_text())
    mats = NetworkMatrices.from_network(net)
    report = analyze(net, SamplerConfig(seed=2024))
    assert report.f_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert report.F_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert report.conclusion_F is ClassesConclusion.GENERICALLY_FINITE
    # positive-kernel trick: all-ones rates lie in ker(gamma), so the
    # all-ones concentration is a steady state; it must be nondegenerate
    ones_kappa = (1,) * mats.r
    chk = check_steady_state(mats, ones_kappa, (1, 1))
    assert chk.residual_zero and not chk.degenerate

    code = cli.main(["check-point", path, "--kappa", ",".join(["1"] * 12), "--x", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "steady state: yes; degenerate: no" in out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report("4", "weakly reversible network is generically finite", elapsed, 5.0)


def test_criterion_5a_random_network_verdicts(capsys):
    t0 = time.perf_counter()
    rng = random.Random(50_001)
    eval_rng = random.Random(50_002)
    checked_nondeg = 0
    checked_alldeg = 0
    for _ in range(200):
        net = random_network(rng)
        mats = NetworkMatrices.from_network(net)
        report = analyze(net, SamplerConfig(seed=rng.randint(0, 2**32)))
        jac_f = symbolic_jacobian_f(mats)
        jac_F = symbolic_jacobian_F(mats)
        for verdict, matrix, target, h_dim in (
            (report.f_verdict, jac_f, mats.s, None),
            (report.F_verdict, jac_F, mats.n, mats.n),
        ):
            if verdict.status is RankTestStatus.NONDEGENERATE_EXISTS:
                # witnesses re-verify exactly
                assert _eval_rank(matrix, _witness_point(verdict), mats.n) == target
                checked_nondeg += 1
            else:
                # symbolic certificate agrees with 20 evaluated samples
                for _ in range(20):
                    point = _random_point(eval_rng, mats.r - mats.s, h_dim)
                    assert _eval_rank(matrix, point, mats.n) < target
                checked_alldeg += 1
    assert checked_nondeg > 0 and checked_alldeg > 0
    elapsed = time.perf_counter() - t0
    _property_elapsed["5a"] = elapsed
    with capsys.disabled():
        print(
            f"acceptance criterion 5a: PASS - 200 random networks "
            f"({checked_nondeg} nondegenerate, {checked_alldeg} certified) [{elapsed:.2f}s]"
        )


def test_criterion_5b_rational_matrix_identities(capsys):
    t0 = time.perf_counter()
    rng = random.Random(50_003)
    for _ in range(500):
        m = random_rational_matrix(rng)
        red, pivots, rank = m.rref()
        kernel = m.kernel_basis()
        assert rank + kernel.cols == m.cols
        assert (m @ kernel).is_zero()
        assert red.rref()[0] == red
    elapsed = time.perf_counter() - t0
    _property_elapsed["5b"] = elapsed
    with capsys.disabled():
        print(f"acceptance criterion 5b: PASS - 500 random matrix identities [{elapsed:.2f}s]")


def test_criterion_5c_symbolic_vs_rational_determinant(capsys):
    t0 = time.perf_counter()
    rng = random.Random(50_004)
    pool = [0, 1, 2]  # u1, u2, h1

    def rand_poly():
        p = MPoly()
        for _ in range(rng.randint(0, 3)):
            term = MPoly.const(Fraction(rng.randint(-4, 4)))
            for v in pool:
                for _ in range(rng.randint(0, 2)):
                    term = term * MPoly.var(v)
            p = p + term
        return p

    for _ in range(30):
        k = rng.randint(1, 4)
        matrix = [[rand_poly() for _ in range(k)] for _ in range(k)]
        sym = det(dict_rows(matrix), range(k))
        for _ in range(10):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in pool]
            evaluated = [[p.eval(point) for p in row] for row in matrix]
            assert sym.eval(point) == cofactor_det(evaluated)
    elapsed = time.perf_counter() - t0
    _property_elapsed["5c"] = elapsed
    with capsys.disabled():
        print(f"acceptance criterion 5c: PASS - determinant/evaluation agreement [{elapsed:.2f}s]")


def _random_unimodular(rng: random.Random, k: int) -> RatMatrix:
    rows = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        op = rng.choice(("add", "swap", "negate"))
        if op == "add" and i != j:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return RatMatrix.from_rows(rows, cols=k)


def test_criterion_5d_basis_independence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(50_005)
    checked = 0
    for _ in range(25):
        net = random_network(rng)
        mats = NetworkMatrices.from_network(net)
        if mats.s == 0:
            continue
        u_mod = _random_unimodular(rng, mats.s)
        n2 = u_mod @ mats.n_mat
        if mats.d > 0:
            v_mod = _random_unimodular(rng, mats.d)
            w2 = v_mod @ mats.w_mat
        else:
            w2 = mats.w_mat
        mats2 = NetworkMatrices.from_matrices(n2, mats.b, w2)
        seed = rng.randint(0, 2**32)
        r1 = analyze_matrices(mats, SamplerConfig(seed=seed))
        r2 = analyze_matrices(mats2, SamplerConfig(seed=seed))
        assert r1.cone.exists is r2.cone.exists
        assert r1.f_verdict.status is r2.f_verdict.status
        assert r1.F_verdict.status is r2.F_verdict.status
        assert r1.conclusion_f is r2.conclusion_f
        assert r1.conclusion_F is r2.conclusion_F
        checked += 1
    assert checked >= 20
    elapsed = time.perf_counter() - t0
    _property_elapsed["5d"] = elapsed
    with capsys.disabled():
        print(f"acceptance criterion 5d: PASS - verdicts invariant under basis change [{elapsed:.2f}s]")


def test_criterion_5_total_budget(capsys):
    total = sum(_property_elapsed.values())
    assert set(_property_elapsed) == {"5a", "5b", "5c", "5d"}
    with capsys.disabled():
        _report("5", "property suites total", total, 60.0)


def _chain_network_text(n_species: int = 86, extras: int = 7) -> str:
    lines = []
    k = 0
    for i in range(1, n_species):
        k += 1
        lines.append(f"S{i} -> S{i + 1} ; k{k}")
    k += 1
    lines.append(f"S{n_species} -> S1 ; k{k}")
    for i in range(1, extras + 1):
        lines.append(f"S{i} + S{i + 1} <-> 2 S{i} ; k{k + 1}, k{k + 2}")
        k += 2
    return "\n".join(lines)


def test_criterion_6_synthetic_large_network(capsys):
    # corpus-scale sweeps are out of scope; the stand-in is an
    # 86-species, 100-reaction cyclic chain analyzed with exact arithmetic
    text = _chain_network_text()
    net = parse_network(text)
    assert (net.n, net.r) == (86, 100)
    t0 = time.perf_counter()
    report = analyze(net, SamplerConfig(seed=2024))
    elapsed = time.perf_counter() - t0
    assert report.dims == (86, 100, 85, 1)
    assert report.cone.exists
    assert report.f_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    assert report.F_verdict.status is RankTestStatus.NONDEGENERATE_EXISTS
    with capsys.disabled():
        _report("6", "86-species synthetic chain", elapsed, 10.0)


def test_criterion_7_replicated_degenerate_network(capsys):
    # every example42 block and every reversible pair adds 1 to the generic
    # rank of the f matrix, so rho = k + d = 9 < s = 17; the certificate
    # names one nonsingular 9x9 block and its sample, not the
    # (s - rho)(n - rho) minors bordering it
    net = parse_network(example42_family_text(4, 5))
    t0 = time.perf_counter()
    report = analyze(net, SamplerConfig(seed=2024))
    elapsed = time.perf_counter() - t0
    n, _, s, _ = report.dims
    assert (n, s) == (22, 17)
    assert report.f_verdict.status is RankTestStatus.ALL_DEGENERATE
    assert report.F_verdict.status is RankTestStatus.ALL_DEGENERATE
    rho = 9
    assert len(report.f_verdict.certificate.rows) == rho
    assert len(json.dumps(cli.report_to_dict(report)["f_test"]["certificate"])) < 1024
    with capsys.disabled():
        _report("7", "22-species replicated example42 certificate", elapsed, 10.0)
