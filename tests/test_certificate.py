"""Independent check of all_degenerate certificates.

Each certificate is re-checked with sympy alone: the symbolic matrix is
rebuilt from the network's integer matrices, the base minor is
evaluated at the recorded sample, every listed minor is expanded to the
zero polynomial, and the listed minors must be exactly the set that
borders the base.  By Kronecker's rank theorem that proves the rank is
the header's rho < target over Q(u, h).  Only the matrices (through
ratmat) are shared with the solver.
"""

import dataclasses
import random

import pytest
import sympy

from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import RankTestStatus, SamplerConfig, analyze

from conftest import fixture_path, parse_certificate, random_network


def _sym(m) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, [int(m.at(i, j)) for i in range(m.rows) for j in range(m.cols)])


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
    cert = parse_certificate(verdict.certificate, with_h=hs is not None)
    nrows, ncols = matrix.shape
    assert cert.target == verdict.target_rank
    assert cert.rank < cert.target
    assert len(cert.rows) == len(cert.cols) == cert.rank
    point = dict(zip(us, cert.u))
    assert len(cert.u) == len(us)
    if hs is not None:
        assert len(cert.h) == len(hs) and min(cert.h) > 0
        point.update(zip(hs, cert.h))
    base = matrix.extract(list(cert.rows), list(cert.cols)).subs(point)
    assert base.det() != 0
    bordering = [
        (tuple(sorted(cert.rows + (i,))), tuple(sorted(cert.cols + (j,))))
        for i in range(nrows)
        if i not in cert.rows
        for j in range(ncols)
        if j not in cert.cols
    ]
    assert len(bordering) == (nrows - cert.rank) * (ncols - cert.rank)
    assert cert.minors == bordering
    for rows, cols in cert.minors:
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
        assert report.F_verdict.certificate == (
            f"rank <= rank(f_test) + {mats.d} < {mats.s} + {mats.d} = {mats.n}: "
            "implied by the f_test certificate",
        )
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
    lines = verdict.certificate
    tampered = [
        lines[:-1],  # a bordering minor left out
        (lines[0], "sample u: 0") + lines[2:],  # base minor zero at the sample
        # claims rank 0: lists the nonzero 1x1 minors as 0
        ("rank 0 < 3: minor rows=() cols=() is nonzero at the sample below; "
         "every bordering minor is 0", lines[1])
        + tuple(f"minor rows=({i}) cols=({j}): 0" for i in range(3) for j in range(3)),
        # claims rank 2: no 2x2 minor is nonzero
        ("rank 2 < 3: minor rows=(0,1) cols=(0,1) is nonzero at the sample below; "
         "every bordering minor is 0", lines[1], "minor rows=(0,1,2) cols=(0,1,2): 0"),
    ]
    for cert in tampered:
        with pytest.raises(AssertionError):
            check_certificate(f, dataclasses.replace(verdict, certificate=cert), us, None)
