"""Independent check of all_degenerate certificates.

Each certificate is re-checked with sympy alone: the symbolic matrix is
rebuilt from the network's integer matrices, the base minor (rows, cols)
is evaluated at the recorded sample, and every minor bordering it, as
the test oracle ``bordering_minors`` lists them, is expanded to the zero
polynomial.  By Kronecker's rank theorem that proves the rank is
rho = len(rows) < target over Q(u, h).  Only the matrices (through
ratmat) are shared with the solver.
"""

import dataclasses
import random
from pathlib import Path

import pytest
import sympy

from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import BorderingCertificate, ImpliedByF, RankTestStatus, SamplerConfig, analyze

from conftest import bordering_minors, fixture_path, random_network

REPO = Path(__file__).resolve().parents[1]


def _sym(m) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, [int(m.row(i)[j]) for i in range(m.rows) for j in range(m.cols)])


def _sympy_matrices(mats: NetworkMatrices):
    """(f, F, u symbols, h symbols) rebuilt from the integer matrices."""
    n_mat = _sym(mats.n_mat)
    g = _sym(mats.n_mat.kernel_basis())
    assert (n_mat * g).is_zero_matrix and g.rank() == mats.r - mats.s
    us = sympy.symbols(f"u1:{g.cols + 1}")
    hs = sympy.symbols(f"h1:{mats.n + 1}")
    w = g * sympy.Matrix(g.cols, 1, us)
    f = n_mat * sympy.diag(*w) * _sym(mats.b).T
    full = (f * sympy.diag(*hs)).col_join(_sym(mats.w_mat))
    return f, full, us, hs


def check_certificate(matrix, verdict, us, hs) -> None:
    cert = verdict.certificate
    assert isinstance(cert, BorderingCertificate)
    nrows, ncols = matrix.shape
    rank = len(cert.rows)
    assert len(cert.cols) == rank < verdict.target_rank
    assert set(cert.rows) <= set(range(nrows)) and set(cert.cols) <= set(range(ncols))
    point = dict(zip(us, cert.sample_u))
    assert len(cert.sample_u) == len(us)
    if hs is None:
        assert cert.sample_h is None
    else:
        assert len(cert.sample_h) == len(hs) and min(cert.sample_h) > 0
        point.update(zip(hs, cert.sample_h))
    base = matrix.extract(list(cert.rows), list(cert.cols)).subs(point)
    assert base.det() != 0
    bordering = list(bordering_minors(nrows, ncols, (cert.rows, cert.cols)))
    assert len(bordering) == (nrows - rank) * (ncols - rank)
    for rows, cols in bordering:
        minor = matrix.extract(list(rows), list(cols)).det(method="berkowitz")
        assert sympy.expand(minor) == 0


def check_report(net) -> dict[str, int]:
    """Check every certificate in the report of ``net``; returns how many per test."""
    report = analyze(net, SamplerConfig(seed=7))
    mats = NetworkMatrices.from_network(net)
    f, full, us, hs = _sympy_matrices(mats)
    checked = {"f": 0, "F": 0}
    if report.f_verdict.status is RankTestStatus.ALL_DEGENERATE:
        check_certificate(f, report.f_verdict, us, None)
        checked["f"] += 1
        assert report.F_verdict.status is RankTestStatus.ALL_DEGENERATE
        assert report.F_verdict.samples_tried == 0
        assert report.F_verdict.certificate == ImpliedByF(mats.d)
    elif report.F_verdict.status is RankTestStatus.ALL_DEGENERATE:
        check_certificate(full, report.F_verdict, us, hs)
        checked["F"] += 1
    return checked


def test_example42_f_certificate():
    assert check_report(parse_network(fixture_path("example42.crn").read_text())) == {"f": 1, "F": 0}


def test_example45_F_certificate():
    net = parse_network(fixture_path("example45.crn").read_text())
    assert check_report(net) == {"f": 0, "F": 1}


def test_random_network_certificates():
    rng = random.Random(61)
    checked = {"f": 0, "F": 0}
    for _ in range(40):
        for key, count in check_report(random_network(rng, max_species=5, max_reactions=6)).items():
            checked[key] += count
    assert checked["f"] >= 10 and checked["F"] >= 1


def test_checker_rejects_tampered_certificates():
    net = parse_network(fixture_path("example42.crn").read_text())
    mats = NetworkMatrices.from_network(net)
    f, _, us, _ = _sympy_matrices(mats)
    verdict = analyze(net, SamplerConfig(seed=7)).f_verdict
    check_certificate(f, verdict, us, None)
    cert = verdict.certificate
    tampered = [
        dataclasses.replace(cert, sample_u=(0,)),  # base minor zero at the sample
        dataclasses.replace(cert, rows=(), cols=()),  # claims rank 0: the 1x1 minors are not 0
        dataclasses.replace(cert, rows=(0, 1), cols=(0, 1)),  # claims rank 2: no 2x2 minor is nonzero
    ]
    for bad in tampered:
        with pytest.raises(AssertionError):
            check_certificate(f, dataclasses.replace(verdict, certificate=bad), us, None)


def test_checker_rejects_a_basis_column_swapped_out():
    # three example42 blocks and three reversible pairs; any nonsingular
    # basis proves the rank, so the swap takes column 0 of the first block
    # for column 4 of the second, which the basis row 0 does not meet
    net = parse_network((REPO / "tests" / "data" / "example42_k3_d3.crn").read_text())
    f, _, us, _ = _sympy_matrices(NetworkMatrices.from_network(net))
    verdict = analyze(net, SamplerConfig(seed=7)).f_verdict
    check_certificate(f, verdict, us, None)
    cert = verdict.certificate
    assert cert.rows[0] == cert.cols[0] == 0 and 4 not in cert.cols
    bad = dataclasses.replace(cert, cols=(4,) + cert.cols[1:])
    with pytest.raises(AssertionError):
        check_certificate(f, dataclasses.replace(verdict, certificate=bad), us, None)
