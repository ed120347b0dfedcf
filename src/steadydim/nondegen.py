"""Generic-rank decision core and network verdict assembly.

The question "does some rate vector admit a nondegenerate steady state"
reduces to rank conditions on two symbolic matrices built from a kernel
parametrization w = G u of ker(N):

  * the s x n matrix  N diag(Gu) B^T          (steady-state system), and
  * the n x n matrix [N diag(Gu) B^T diag(h); W]   (system restricted to
    compatibility classes),

where the entries are polynomials in u (and h).  Both matrices, and the
Jacobian at an explicit point, come from one routine, ``jacobian``, which
sums the nonzero products N[i,k] B[j,k] (collected once per network)
against numbers or polynomials alike.  Each target rank is tested at
random integer points, straight from the integer matrices: a sample's
rank modulo the prime 2^61 - 1 never exceeds its exact rank, so reaching
the target proves it, and exact rational elimination decides every other
sample.  Only if every sample falls short is the polynomial matrix
built, over the variables u_t (index t) and h_j (index u_dim + j): the
best sample has rank rho and a nonsingular rho x rho submatrix; its
bordering (rho+1)-minors either all vanish, which proves the rank is rho everywhere (Kronecker's
theorem, a symbolic certificate), or one of them is a nonzero polynomial
that drives the sampling to a point of higher rank, until the target is
reached.  When the first matrix is rank deficient everywhere, so is the
second, and its test is skipped.

Combined with feasibility of the positive kernel cone, the two verdicts
classify the network: generic steady-state variety dimension n - s
versus generically empty/higher-dimensional, and generic finiteness of
steady states per compatibility class versus generically none/infinitely
many.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cone import ConeResult, ConeStatus, positive_kernel_vector
from .mpoly import MinorWitness, MPoly, all_minors_zero, bordering_minors
from .netmodel import NetworkMatrices, ReactionNetwork
from .ratmat import RatMatrix, rank_mod_p

_ONE = Fraction(1)

# samples per round when hunting a nonzero value of a known nonzero minor;
# the sample bound doubles between rounds
_PIT_BUDGET = 100


class DimensionMismatch(ValueError):
    """Vector length or domain violation in an exact evaluation."""


class BudgetExhausted(RuntimeError):
    """The configured hard sampling cap was hit before finding a witness."""


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the randomized rank test.

    seed: base RNG seed; every derived stream is a pure function of it.
    retries: samples drawn before falling back to the bordering-minor loop.
    sample_bound: H; components are drawn from [-H, H] (u, zero excluded)
        or [1, H] (h).
    hard_cap: optional absolute cap on minor-hunt samples (off by default;
        the hunt draws rounds of ``_PIT_BUDGET`` samples and doubles H
        between rounds, so it cannot stall for a nonzero polynomial).
    """

    seed: int = 0
    retries: int = 5
    sample_bound: int = 65536
    hard_cap: Optional[int] = None

    def __post_init__(self):
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.sample_bound < 2:
            raise ValueError("sample_bound must be >= 2")


def derive_seed(seed: int, label: str) -> int:
    """Platform-stable derived seed for an independent RNG stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RankTestStatus(str, Enum):
    NONDEGENERATE_EXISTS = "nondegenerate_exists"
    ALL_DEGENERATE = "all_degenerate"


@dataclass(frozen=True)
class GenericRankVerdict:
    target_rank: int
    status: RankTestStatus
    witness_u: Optional[tuple[Fraction, ...]]
    witness_h: Optional[tuple[Fraction, ...]]
    witness_w: Optional[tuple[Fraction, ...]]
    certificate: Optional[tuple[str, ...]]
    samples_tried: int

    @property
    def nondegenerate(self) -> bool:
        return self.status is RankTestStatus.NONDEGENERATE_EXISTS


@dataclass(frozen=True)
class SteadyStateCheck:
    kappa: tuple[Fraction, ...]
    x: tuple[Fraction, ...]
    residual_zero: bool
    jacobian: RatMatrix
    stacked_rank: int
    degenerate: bool


class VarietyConclusion(str, Enum):
    GENERIC_DIMENSION_N_MINUS_S = "generic_dimension_n_minus_s"
    EMPTY_OR_HIGHER_DIMENSIONAL = "empty_or_higher_dimensional"
    NO_POSITIVE_STEADY_STATES = "no_positive_steady_states"


class ClassesConclusion(str, Enum):
    GENERICALLY_FINITE = "generically_finite"
    GENERICALLY_EMPTY_OR_INFINITE = "generically_empty_or_infinite"
    NO_POSITIVE_STEADY_STATES = "no_positive_steady_states"


@dataclass(frozen=True)
class AnalysisReport:
    network: Optional[ReactionNetwork]
    dims: tuple[int, int, int, int]  # (n, r, s, d)
    cone: ConeResult
    f_verdict: GenericRankVerdict
    F_verdict: GenericRankVerdict
    conclusion_f: VarietyConclusion
    conclusion_F: ClassesConclusion
    notes: tuple[str, ...]


# -- the Jacobian ----------------------------------------------------------

# A rank test's matrix as a function of (u, h), h None when the test has no
# h variables.  It must accept numbers and MPolys alike.
MatrixFn = Callable[[Sequence, Optional[Sequence]], list[list]]


def jacobian(mats: NetworkMatrices, w: Sequence, h: Optional[Sequence] = None) -> list[list]:
    """The s x n matrix N diag(w) B^T diag(h) as a list of rows.

    Entry (i, j) is the sum over the nonzero products N[i,k] B[j,k] of
    N[i,k] B[j,k] w_k, times h_j when ``h`` is given.  ``w`` and ``h``
    may hold numbers or MPolys; an entry no product reaches is the int 0.
    """
    rows = [[0] * mats.n for _ in range(mats.s)]
    for i, j, k, c in mats.products:
        rows[i][j] += c * w[k]
    if h is not None:
        rows = [[x * hj for x, hj in zip(row, h)] for row in rows]
    return rows


def _kernel_combination(mats: NetworkMatrices, g: RatMatrix):
    """u -> G u, in Python ints where G is integral."""
    if g.rows != mats.r:
        raise DimensionMismatch(f"kernel basis has {g.rows} rows, expected {mats.r}")
    g_rows = [
        [(t, int(x) if x.denominator == 1 else x) for t, x in g.entries(k).items()] for k in range(g.rows)
    ]
    return lambda u: [sum(x * u[t] for t, x in row) for row in g_rows]


def f_test_matrix(mats: NetworkMatrices, g: RatMatrix) -> MatrixFn:
    """N diag(Gu) B^T as a function of (u, h); ``g`` is a kernel basis of N."""
    combine = _kernel_combination(mats, g)
    return lambda u, h: jacobian(mats, combine(u))


def F_test_matrix(mats: NetworkMatrices, g: RatMatrix) -> MatrixFn:
    """[N diag(Gu) B^T diag(h); W] as a function of (u, h)."""
    combine = _kernel_combination(mats, g)
    w_rows = [[int(x) if x.denominator == 1 else x for x in row] for row in mats.w_mat.to_rows()]
    return lambda u, h: jacobian(mats, combine(u), h) + w_rows


def _symbolic(matrix: MatrixFn, u_dim: int, h_dim: Optional[int]) -> list[list[MPoly]]:
    """The matrix at the variables u1.. (and h1..), every entry an MPoly.

    u_t is variable t and h_j is variable u_dim + j, so a polynomial entry
    evaluates at the concatenated sample ``u_vals + h_vals``.
    """
    u = [MPoly.var(t) for t in range(u_dim)]
    h = None if h_dim is None else [MPoly.var(u_dim + j) for j in range(h_dim)]
    return [[x if isinstance(x, MPoly) else MPoly.const(x) for x in row] for row in matrix(u, h)]


def symbolic_jacobian_f(mats: NetworkMatrices, g: RatMatrix) -> list[list[MPoly]]:
    """The s x n matrix N diag(Gu) B^T, entries linear in u."""
    return _symbolic(f_test_matrix(mats, g), g.cols, None)


def symbolic_jacobian_F(mats: NetworkMatrices, g: RatMatrix) -> list[list[MPoly]]:
    """The n x n matrix [N diag(Gu) B^T diag(h); W]."""
    return _symbolic(F_test_matrix(mats, g), g.cols, mats.n)


# -- randomized rank test -------------------------------------------------


def _sample_point(rng: random.Random, bound: int, u_dim: int, h_dim: Optional[int]):
    """Integer u (zero excluded) from [-bound, bound], then h from [1, bound]."""
    u_vals = []
    for _ in range(u_dim):
        val = 0
        while val == 0:
            val = rng.randint(-bound, bound)
        u_vals.append(val)
    h_vals = None if h_dim is None else tuple(rng.randint(1, bound) for _ in range(h_dim))
    return tuple(u_vals), h_vals


def _nonsingular_submatrix(
    evaluated: RatMatrix, cols: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rows, cols) of a square submatrix of full rank rank(evaluated).

    ``cols`` are the pivot columns of the matrix; rows are the pivot rows
    of those columns.
    """
    columns = evaluated.transpose()
    picked = RatMatrix(len(cols), evaluated.rows, [columns.entries(j) for j in cols])
    _, rows, _ = picked.rref()
    return rows, cols


def _indices(idx: Sequence[int]) -> str:
    return "(" + ",".join(str(i) for i in idx) + ")"


def _bordering_certificate(
    shape: tuple[int, int],
    basis: tuple[tuple[int, ...], tuple[int, ...]],
    target: int,
    u_vals: tuple[int, ...],
    h_vals: Optional[tuple[int, ...]],
) -> tuple[str, ...]:
    """Certificate lines: header, the sample, then every bordering minor."""
    rows, cols = basis
    lines = [
        f"rank {len(rows)} < {target}: minor rows={_indices(rows)} cols={_indices(cols)} "
        "is nonzero at the sample below; every bordering minor is 0",
        "sample u:" + "".join(f" {x}" for x in u_vals),
    ]
    if h_vals is not None:
        lines.append("sample h:" + "".join(f" {x}" for x in h_vals))
    for rset, cset in bordering_minors(*shape, basis):
        lines.append(f"minor rows={_indices(rset)} cols={_indices(cset)}: 0")
    return tuple(lines)


def generic_rank_test(
    matrix: MatrixFn,
    target: int,
    cfg: SamplerConfig | None = None,
    *,
    u_dim: int,
    h_dim: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> GenericRankVerdict:
    """Decide whether the matrix ``matrix(u, h)`` has rank >= ``target`` somewhere.

    ``matrix`` maps u (length ``u_dim``) and h (length ``h_dim``, or None)
    to a list of rows, for numbers and for MPolys alike: a sample is the
    matrix at integer u and h, and the polynomial matrix is the same
    function at the variables u1.., h1...

    Up to ``cfg.retries`` samples first.  A sample is ranked modulo the
    prime ``ratmat.MODULUS`` first: that rank never exceeds the exact
    rank, so when it reaches ``target`` the sample is a proven witness
    without rational arithmetic.  Every other sample is row-reduced once
    over Q, and the exact ranks alone choose the best sample, the pivots
    and the certificate.  If all fall short, the polynomial matrix is
    built, and the highest-rank sample (rank rho, the first of equals)
    gives a nonsingular rho x rho submatrix (R, C), its pivot columns and
    the pivot rows of those; only the minors bordering it are computed
    symbolically:

      * all zero: the rank is rho over Q(u, h), so AllDegenerate, with a
        certificate naming (R, C), the sample and every bordering minor;
      * one nonzero: it is sampled until it evaluates nonzero (doubling
        the sample bound whenever a round of ``_PIT_BUDGET`` samples is
        exhausted).  The rank there exceeds rho; if it reaches the target
        that point is the witness, otherwise the loop repeats from it.

    A witness is a point at which the exact rank of the evaluated matrix
    is at least ``target``; ``witness_w`` is left None.  A negative
    target raises ValueError, and so does one above min(rows, cols) once
    the samples have shown the matrix's shape.
    """
    if target < 0:
        raise ValueError(f"negative target rank {target}")
    cfg = cfg or SamplerConfig()
    rng = rng or random.Random(cfg.seed)

    def verdict_for(u_vals, h_vals, samples) -> GenericRankVerdict:
        return GenericRankVerdict(
            target_rank=target,
            status=RankTestStatus.NONDEGENERATE_EXISTS,
            witness_u=tuple(Fraction(x) for x in u_vals),
            witness_h=tuple(Fraction(x) for x in h_vals) if h_vals is not None else None,
            witness_w=None,
            certificate=None,
            samples_tried=samples,
        )

    def evaluate(u_vals, h_vals):
        """(rank, pivot columns, evaluated matrix) at a sample; only the rank,
        ``target``, when the rank mod p proves it."""
        rows = matrix(u_vals, h_vals)
        # the rank mod p never exceeds the rational rank, so reaching the
        # target proves it; short of it, it decides nothing
        if rank_mod_p(rows) >= target:
            return target, None, None
        evaluated = RatMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
        _, cols, rank = evaluated.rref()
        return rank, cols, evaluated

    bound = cfg.sample_bound
    samples = hunted = 0

    def hunt(witness: MinorWitness):
        """Sample until the minor is nonzero: a point of rank >= its size."""
        nonlocal bound, samples, hunted
        while True:
            for _ in range(_PIT_BUDGET):
                if cfg.hard_cap is not None and hunted >= cfg.hard_cap:
                    raise BudgetExhausted(
                        f"no nonzero evaluation of minor {witness.rows}x{witness.cols} "
                        f"within {cfg.hard_cap} samples"
                    )
                u_vals, h_vals = _sample_point(rng, bound, u_dim, h_dim)
                samples += 1
                hunted += 1
                if witness.poly.eval(u_vals + (h_vals or ())):
                    return u_vals, h_vals
            bound *= 2

    best = None  # (rank, pivot columns, evaluated matrix, u_vals, h_vals) of the best sample
    for _ in range(cfg.retries):
        u_vals, h_vals = _sample_point(rng, bound, u_dim, h_dim)
        samples += 1
        rank, cols, evaluated = evaluate(u_vals, h_vals)
        if rank >= target:
            return verdict_for(u_vals, h_vals, samples)
        if best is None or rank > best[0]:
            best = (rank, cols, evaluated, u_vals, h_vals)

    rank, cols, evaluated, u_vals, h_vals = best
    # no sample reaches a target above the matrix's size, so checking here covers it
    if target > min(evaluated.rows, evaluated.cols):
        raise ValueError(f"target rank {target} out of range for {evaluated.rows}x{evaluated.cols}")
    symbolic = _symbolic(matrix, u_dim, h_dim)
    while True:
        basis = _nonsingular_submatrix(evaluated, cols)
        vanish, witness = all_minors_zero(symbolic, rank + 1, basis=basis)
        if vanish:
            return GenericRankVerdict(
                target_rank=target,
                status=RankTestStatus.ALL_DEGENERATE,
                witness_u=None,
                witness_h=None,
                witness_w=None,
                certificate=_bordering_certificate(
                    (evaluated.rows, evaluated.cols), basis, target, u_vals, h_vals
                ),
                samples_tried=samples,
            )

        u_vals, h_vals = hunt(witness)
        rank, cols, evaluated = evaluate(u_vals, h_vals)
        if rank >= target:
            return verdict_for(u_vals, h_vals, samples)


# -- pointwise checks ------------------------------------------------------


def _validate_point(mats: NetworkMatrices, kappa, x):
    if len(kappa) != mats.r:
        raise DimensionMismatch(f"kappa has length {len(kappa)}, expected {mats.r}")
    if len(x) != mats.n:
        raise DimensionMismatch(f"x has length {len(x)}, expected {mats.n}")
    kv = tuple(Fraction(k) for k in kappa)
    xv = tuple(Fraction(v) for v in x)
    if any(k <= 0 for k in kv):
        raise DimensionMismatch("rate constants must be strictly positive")
    if any(v == 0 for v in xv):
        raise DimensionMismatch("x must be componentwise nonzero")
    return kv, xv


def _monomials(mats: NetworkMatrices, x: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # (x^B)_i = prod_j x_j^{B[j,i]}; integer exponents of either sign
    b_cols = mats.b.transpose()
    vals = []
    for i in range(mats.r):
        acc = _ONE
        for j, e in b_cols.entries(i).items():
            acc *= x[j] ** int(e)
        vals.append(acc)
    return tuple(vals)


def check_steady_state(mats: NetworkMatrices, kappa, x) -> SteadyStateCheck:
    """Residual and degeneracy data of a candidate steady state.

    The Jacobian of the steady-state system at (kappa, x) is
    N diag(kappa ∘ x^B) B^T diag(x^{-1}); the point is degenerate when
    the Jacobian stacked on the conservation laws W drops below rank n.
    Degeneracy fields are computed even when the residual is nonzero
    (``residual_zero`` is the flag).
    """
    kv, xv = _validate_point(mats, kappa, x)
    scaled = [k * m for k, m in zip(kv, _monomials(mats, xv))]
    residual = mats.n_mat.mul_vec(scaled)
    jac = RatMatrix.from_rows(jacobian(mats, scaled, [1 / v for v in xv]), cols=mats.n)
    stacked_rank = jac.vstack(mats.w_mat).rank()
    return SteadyStateCheck(
        kappa=kv,
        x=xv,
        residual_zero=not any(residual),
        jacobian=jac,
        stacked_rank=stacked_rank,
        degenerate=stacked_rank < mats.n,
    )


# -- full pipeline -----------------------------------------------------------


def analyze(net: ReactionNetwork, cfg: SamplerConfig | None = None) -> AnalysisReport:
    """Parse-level entry point: build matrices, then run the pipeline."""
    return analyze_matrices(NetworkMatrices.from_network(net), cfg, network=net)


def analyze_matrices(
    mats: NetworkMatrices,
    cfg: SamplerConfig | None = None,
    network: Optional[ReactionNetwork] = None,
) -> AnalysisReport:
    """Cone feasibility plus both generic-rank tests, with conclusions.

    When the positive kernel cone is empty no rate vector admits positive
    steady states and both conclusions say so; the rank tests still run
    and are reported as information about the complex-torus systems.

    When the f-test is AllDegenerate the F-test is not run: the top block
    of the F matrix has the f matrix's rank and W adds at most d, so
    rank F <= rank f + d < s + d = n.  Its verdict cites the f certificate
    and reports 0 samples.

    A nondegenerate verdict's ``witness_w`` is G u at its integer witness u.
    """
    cfg = cfg or SamplerConfig()
    cone = positive_kernel_vector(mats.n_mat)
    g = mats.g
    u_dim = mats.r - mats.s
    combine = _kernel_combination(mats, g)

    def rank_test(matrix: MatrixFn, target: int, label: str, h_dim=None) -> GenericRankVerdict:
        rng = random.Random(derive_seed(cfg.seed, label))
        verdict = generic_rank_test(matrix, target, cfg, u_dim=u_dim, h_dim=h_dim, rng=rng)
        if not verdict.nondegenerate:
            return verdict
        w = combine([int(x) for x in verdict.witness_u])
        return replace(verdict, witness_w=tuple(Fraction(x) for x in w))

    f_verdict = rank_test(f_test_matrix(mats, g), mats.s, "f-test")
    if f_verdict.nondegenerate:
        F_verdict = rank_test(F_test_matrix(mats, g), mats.n, "F-test", mats.n)
    else:
        F_verdict = GenericRankVerdict(
            target_rank=mats.n,
            status=RankTestStatus.ALL_DEGENERATE,
            witness_u=None,
            witness_h=None,
            witness_w=None,
            certificate=(
                f"rank <= rank(f_test) + {mats.d} < {mats.s} + {mats.d} = {mats.n}: "
                "implied by the f_test certificate",
            ),
            samples_tried=0,
        )

    notes: list[str] = []
    if cone.status is ConeStatus.EMPTY:
        conclusion_f = VarietyConclusion.NO_POSITIVE_STEADY_STATES
        conclusion_F = ClassesConclusion.NO_POSITIVE_STEADY_STATES
        notes.append(
            "positive kernel cone is empty: no rate constants admit positive "
            "steady states; rank verdicts describe the complex-torus systems only"
        )
    else:
        conclusion_f = (
            VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
            if f_verdict.nondegenerate
            else VarietyConclusion.EMPTY_OR_HIGHER_DIMENSIONAL
        )
        conclusion_F = (
            ClassesConclusion.GENERICALLY_FINITE
            if F_verdict.nondegenerate
            else ClassesConclusion.GENERICALLY_EMPTY_OR_INFINITE
        )
    if mats.s == 0:
        notes.append(
            "stoichiometric matrix has rank 0: the steady-state system is empty, "
            "every positive point is a steady state (variety dimension n)"
        )

    return AnalysisReport(
        network=network,
        dims=(mats.n, mats.r, mats.s, mats.d),
        cone=cone,
        f_verdict=f_verdict,
        F_verdict=F_verdict,
        conclusion_f=conclusion_f,
        conclusion_F=conclusion_F,
        notes=tuple(notes),
    )
