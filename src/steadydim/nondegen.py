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
against numbers or polynomials alike into sparse rows, one dict
{column: nonzero entry} per row, so a sample costs time in its nonzeros,
not in s x n.  ``analyze_matrices`` tests each target rank first at one
random integer point, straight from the integer matrices: one forward
pass modulo the prime 2^61 - 1 gives a submatrix that is nonsingular
modulo p, hence over Q, so a sample whose submatrix reaches the target
is a proven witness.  The two tests share that point's u: the F matrix
at (u, h) is the f matrix at u with column j times h_j, and W below it,
so the F-test takes the f witness's u, draws only h, and adds the d rows
of W diag(h)^-1 to the f-test's echelon modulo p, which gives the rows
and leads of the whole F matrix at (u, h) (a hunted f witness is reduced
afresh).  ``generic_rank_test`` takes that sample and its echelon; only
when the sample falls short is the polynomial matrix built, in the same
sparse rows with MPoly entries, over the variables u_t (index t) and h_j
(index len(u) + j).  The sample's rank modulo p, rho, gives a nonsingular
rho x rho submatrix; its bordering (rho+1)-minors, each decided from the
blocks of that submatrix, either all vanish, which proves the rank is
rho everywhere (Kronecker's theorem; that submatrix and the sample are
the certificate), or the test names one that is a nonzero polynomial.
Points are drawn until the determinant of that minor's entries' values
there is nonzero, a point of rank at least rho + 1: the witness once
rho + 1 reaches the target, else the next submatrix.
When the first matrix is rank deficient everywhere, so is the second,
and its test is skipped.

Combined with feasibility of the positive kernel cone, the two verdicts
classify the network: generic steady-state variety dimension n - s
versus generically empty/higher-dimensional, and generic finiteness of
steady states per compatibility class versus generically none/infinitely
many.  A report stores the matrices, the cone and the verdicts.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, ClassVar, Optional, Sequence

from .cone import ConeResult, positive_kernel_vector
# by name: bench/tracer.py patches nondegen.all_minors_zero (its mpoly.det span misses this det)
from .mpoly import MPoly, all_minors_zero, det
from .netmodel import NetworkMatrices, ReactionNetwork
from .ratmat import MODULUS, EchelonModP, RatMatrix, Rational

_ONE = Fraction(1)

# the bound H of a sample's components: a constant, since every verdict
# is proved whatever it is
_SAMPLE_BOUND = 65536
# samples per round when hunting a nonzero value of a known nonzero minor;
# the sample bound doubles between rounds
_PIT_BUDGET = 100


class DimensionMismatch(ValueError):
    """Vector length or domain violation in an exact evaluation."""


class BudgetExhausted(RuntimeError):
    """The configured hard sampling cap was hit before finding a witness."""


@dataclass(frozen=True)
class SamplerConfig:
    """Settings of ``analyze_matrices``'s rank tests.  It draws each test's
    first sample, components from [-H, H] (u, zero excluded) or [1, H]
    (h), H = ``_SAMPLE_BOUND`` (the F-test's u is the f witness's), and
    ``generic_rank_test`` hunts from the same stream.

    seed: base RNG seed; every derived stream is a pure function of it.
    hard_cap: optional absolute cap on minor-hunt samples (off by default;
        the hunt draws rounds of ``_PIT_BUDGET`` samples and doubles H
        between rounds, so it cannot stall for a nonzero polynomial).
    """

    seed: int = 0
    hard_cap: Optional[int] = None


def derive_seed(seed: int, label: str) -> int:
    """Platform-stable derived seed for an independent RNG stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RankTestStatus(str, Enum):
    NONDEGENERATE_EXISTS = "nondegenerate_exists"
    ALL_DEGENERATE = "all_degenerate"


@dataclass(frozen=True)
class BorderingCertificate:
    """Rank ``len(rows)`` everywhere: the minor (rows, cols) is nonzero at the sample (``sample_h``
    None in the f-test), and every minor bordering it is the zero polynomial (Kronecker)."""

    kind: ClassVar[str] = "bordering"
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    sample_u: tuple[int, ...]
    sample_h: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class ImpliedByF:
    """All-degenerate F-test after an all-degenerate f-test: rank F <= rank f + d < s + d = n."""

    kind: ClassVar[str] = "implied_by_f"
    d: int


@dataclass(frozen=True)
class GenericRankVerdict:
    """A witness (nondegenerate_exists), the sampled u and h as drawn, or a
    certificate (all_degenerate); ``status`` reads which."""

    target_rank: int
    samples_tried: int
    witness_u: Optional[tuple[Rational, ...]] = None
    witness_h: Optional[tuple[Rational, ...]] = None
    certificate: BorderingCertificate | ImpliedByF | None = None

    @property
    def nondegenerate(self) -> bool:
        return self.certificate is None

    @property
    def status(self) -> RankTestStatus:
        return RankTestStatus.NONDEGENERATE_EXISTS if self.nondegenerate else RankTestStatus.ALL_DEGENERATE


@dataclass(frozen=True)
class SteadyStateCheck:
    """A candidate point, its residual flag, its s x n Jacobian and the rank of
    the Jacobian stacked on W; ``degenerate`` reads that rank."""

    kappa: tuple[Fraction, ...]
    x: tuple[Fraction, ...]
    residual_zero: bool
    jacobian: RatMatrix
    stacked_rank: int

    @property
    def degenerate(self) -> bool:
        return self.stacked_rank < self.jacobian.cols


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
    """A network's matrices, cone and rank verdicts; the rest is computed:
    n, r, s, d and each witness's w = G u from the matrices, the conclusions
    and notes from the proofs (and s = 0).  The generic dimension is the
    expected one exactly when a nondegenerate solution exists, and over the
    positive reals when the cone is nonempty, which an empty cone rules out."""

    network: Optional[ReactionNetwork]
    mats: NetworkMatrices
    cone: ConeResult
    f_verdict: GenericRankVerdict
    F_verdict: GenericRankVerdict

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.mats.n, self.mats.r, self.mats.s, self.mats.d

    def witness_w(self, verdict: GenericRankVerdict) -> Optional[tuple[Rational, ...]]:
        """w = G u at the verdict's witness u, None when it has a certificate."""
        return self.mats.g.mul_vec(verdict.witness_u) if verdict.nondegenerate else None

    @property
    def conclusion_f(self) -> VarietyConclusion:
        if not self.cone.exists:
            return VarietyConclusion.NO_POSITIVE_STEADY_STATES
        if self.f_verdict.nondegenerate:
            return VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
        return VarietyConclusion.EMPTY_OR_HIGHER_DIMENSIONAL

    @property
    def conclusion_F(self) -> ClassesConclusion:
        if not self.cone.exists:
            return ClassesConclusion.NO_POSITIVE_STEADY_STATES
        if self.F_verdict.nondegenerate:
            return ClassesConclusion.GENERICALLY_FINITE
        return ClassesConclusion.GENERICALLY_EMPTY_OR_INFINITE

    @property
    def notes(self) -> tuple[str, ...]:
        notes = []
        if not self.cone.exists:
            notes.append(
                "positive kernel cone is empty: no rate constants admit positive "
                "steady states; rank verdicts describe the complex-torus systems only"
            )
        if self.mats.s == 0:
            notes.append(
                "stoichiometric matrix has rank 0: the steady-state system is empty, "
                "every positive point is a steady state (variety dimension n)"
            )
        return tuple(notes)


# -- the Jacobian ----------------------------------------------------------

# A rank test's matrix as a function of (u, h), h None when the test has no
# h variables: one dict {column: nonzero entry} per row, columns ascending.
# It must accept numbers and MPolys alike.
MatrixFn = Callable[[Sequence, Optional[Sequence]], list[dict]]


def jacobian(mats: NetworkMatrices, w: Sequence, h: Optional[Sequence] = None) -> list[dict]:
    """The s x n matrix N diag(w) B^T diag(h), one dict {column: nonzero} per row.

    Entry (i, j) is the sum over the nonzero products N[i,k] B[j,k] of
    N[i,k] B[j,k] w_k, times h_j when ``h`` is given.  ``w`` and ``h``
    may hold numbers or MPolys; ``h`` must hold no zero.  An entry that
    no product reaches, or whose products cancel, is left out; the
    columns of each row are ascending.
    """
    rows: list[dict] = [{} for _ in range(mats.s)]
    for i, j, k, c in mats.products:
        row = rows[i]
        row[j] = row.get(j, 0) + c * w[k]
    if h is None:
        return [{j: x for j, x in row.items() if x} for row in rows]
    return [{j: x * h[j] for j, x in row.items() if x} for row in rows]


def _kernel_combination(mats: NetworkMatrices):
    """u -> G u for G = ``mats.g``, a primitive integer basis: G u is integral at integer u."""
    g_rows = [list(mats.g.entries(k).items()) for k in range(mats.r)]
    return lambda u: [sum(x * u[t] for t, x in row) for row in g_rows]


def f_test_matrix(mats: NetworkMatrices) -> MatrixFn:
    """N diag(Gu) B^T as a function of (u, h), G = ``mats.g``."""
    combine = _kernel_combination(mats)
    return lambda u, h: jacobian(mats, combine(u))


def F_test_matrix(mats: NetworkMatrices) -> MatrixFn:
    """[N diag(Gu) B^T diag(h); W] as a function of (u, h), G = ``mats.g``."""
    combine = _kernel_combination(mats)
    w_rows = [mats.w_mat.entries(i) for i in range(mats.w_mat.rows)]
    return lambda u, h: jacobian(mats, combine(u), h) + w_rows


def _symbolic(matrix: MatrixFn, u_dim: int, h_dim: Optional[int]) -> list[dict[int, MPoly]]:
    """The matrix at the variables u1.. (and h1..), in the samples' sparse rows.

    u_t is variable t and h_j is variable u_dim + j, so a polynomial entry
    evaluates at the concatenated sample ``u_vals + h_vals``.  Entries
    that do not depend on the variables (the rows of W) are wrapped in
    ``MPoly.const``; every row keeps only its nonzero entries.
    """
    u = [MPoly.var(t) for t in range(u_dim)]
    h = None if h_dim is None else [MPoly.var(u_dim + j) for j in range(h_dim)]
    return [
        {j: x if isinstance(x, MPoly) else MPoly.const(x) for j, x in row.items()}
        for row in matrix(u, h)
    ]


# symbolic_jacobian_f and _F have no caller in src/ (generic_rank_test calls
# _symbolic); they stay while bench/tracer.py patches them by name, which
# bench/tests/test_bench_harness.py::test_recorder_restores_every_patched_name
# requires (ROADMAP item 5).
def symbolic_jacobian_f(mats: NetworkMatrices) -> list[dict[int, MPoly]]:
    """The s x n matrix N diag(Gu) B^T, entries linear in u, one dict per row."""
    return _symbolic(f_test_matrix(mats), mats.g.cols, None)


def symbolic_jacobian_F(mats: NetworkMatrices) -> list[dict[int, MPoly]]:
    """The n x n matrix [N diag(Gu) B^T diag(h); W], one dict per row."""
    return _symbolic(F_test_matrix(mats), mats.g.cols, mats.n)


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


def extend_by_w(mats: NetworkMatrices, echelon: EchelonModP, h: Sequence[int]) -> EchelonModP:
    """The F matrix's echelon at (u, h) from the f matrix's at u, extended in place.

    The F matrix at (u, h) is [f(u) diag(h); W].  Scaled on the right by the
    invertible diag(h)^-1 it is [f(u); W diag(h)^-1], whose rows are
    independent in the same places and whose row spaces have the same
    leads, so adding the d rows of W diag(h)^-1 modulo p to the echelon of
    f(u) gives the ``(R, C)`` of the F matrix: R is f's R plus s + i for
    each row i of W that adds a lead.  Each h_j is an integer from 1 to
    less than p, so it has an inverse modulo p.
    """
    inverse: dict[int, int] = {}
    for i in range(mats.d):
        row = mats.w_mat.entries(i)
        for j in row:
            if j not in inverse:
                inverse[j] = pow(h[j], -1, MODULUS)
        echelon.add({j: x * inverse[j] for j, x in row.items()})
    return echelon


def generic_rank_test(
    matrix: MatrixFn,
    target: int,
    u: tuple[int, ...],
    h: Optional[tuple[int, ...]],
    echelon: EchelonModP,
    rng: random.Random,
    *,
    cols: int,
    hard_cap: Optional[int] = None,
) -> GenericRankVerdict:
    """Decide whether the matrix ``matrix(u, h)`` has rank >= ``target`` somewhere.

    ``matrix`` maps u and h (or None) to its rows, each a dict {column:
    nonzero entry} over the columns 0..``cols``-1, for numbers and for
    MPolys alike: a sample is the matrix at integer u and h, and the
    polynomial matrix is the same function at the variables u1.., h1...

    The caller's first sample is the integer point (``u``, ``h``), whose
    lengths are the numbers of variables, and ``echelon`` is the matrix
    there after one forward pass modulo the prime ``ratmat.MODULUS``, its
    rows in order (a column may be scaled by a nonzero number, the same
    in every row, which changes neither the rows that add a lead nor the
    leads): rows R and columns C of a submatrix that is nonsingular over
    Q.  If ``len(R) >= target`` the sample is the witness.  Otherwise the
    polynomial matrix is built, and while the basis (R, C), of size rho,
    falls short of the target, only the minors bordering it are decided
    symbolically:

      * all zero: the rank is rho over Q(u, h); AllDegenerate, with a
        ``BorderingCertificate`` of (R, C) and its sample;
      * one nonzero, named by its rows and columns: points are drawn from
        ``rng`` until ``mpoly.det`` of its entries' values there is
        nonzero (doubling the sample bound whenever a round of
        ``_PIT_BUDGET`` samples is exhausted), a point of rank at least
        rho + 1.  If rho + 1 reaches the target that point is the witness;
        otherwise the minor and that point are the next basis and sample,
        so the loop runs at most target - rho rounds.

    ``samples_tried`` is 1 plus the hunted samples, which alone count
    toward ``hard_cap``.  A witness is an integer point at which the exact
    rank of the evaluated matrix is at least ``target``.  A negative
    target raises ValueError, and so does one above min(rows, cols), the
    rows being those added to ``echelon``.
    """
    if not 0 <= target <= min(echelon.count, cols):
        raise ValueError(f"target rank {target} out of range for {echelon.count}x{cols}")
    u_dim, h_dim = len(u), None if h is None else len(h)
    bound = _SAMPLE_BOUND
    hunted = 0
    basis = echelon.basis()
    symbolic = _symbolic(matrix, u_dim, h_dim) if len(basis[0]) < target else None
    while len(basis[0]) < target:
        minor = all_minors_zero(symbolic, cols, basis)
        if minor is None:
            return GenericRankVerdict(
                target_rank=target,
                certificate=BorderingCertificate(*basis, u, h),
                samples_tried=1 + hunted,
            )
        # sample until the minor is nonzero, a point of rank at least its
        # size; the bound doubles after each round of _PIT_BUDGET samples
        minor_rows, minor_cols = minor
        entries = [{j: x for j, x in symbolic[i].items() if j in minor_cols} for i in minor_rows]
        for tries in itertools.count(1):
            if hard_cap is not None and hunted >= hard_cap:
                raise BudgetExhausted(f"no nonzero evaluation of minor {minor} within {hard_cap} samples")
            u, h = _sample_point(rng, bound, u_dim, h_dim)
            hunted += 1
            point = u + (h or ())
            if det([{j: x.eval(point) for j, x in row.items()} for row in entries], minor_cols):
                break
            if tries % _PIT_BUDGET == 0:
                bound *= 2
        basis = minor
    return GenericRankVerdict(
        target_rank=target,
        witness_u=u,
        witness_h=h,
        samples_tried=1 + hunted,
    )


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
            acc *= x[j] ** e
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
    jac = RatMatrix.from_entries(mats.s, mats.n, jacobian(mats, scaled, [1 / v for v in xv]))
    return SteadyStateCheck(
        kappa=kv,
        x=xv,
        residual_zero=not any(residual),
        jacobian=jac,
        stacked_rank=jac.vstack(mats.w_mat).rank(),
    )


# -- full pipeline -----------------------------------------------------------


def analyze(net: ReactionNetwork, cfg: SamplerConfig | None = None) -> AnalysisReport:
    """Parse-level entry point: build matrices, then run the pipeline."""
    return analyze_matrices(NetworkMatrices.from_network(net), cfg, network=net)


def implied_F_verdict(mats: NetworkMatrices) -> GenericRankVerdict:
    """The F verdict after an all-degenerate f-test, with no F-test run: the
    F matrix's top block has the f matrix's rank and W adds at most d, so
    rank F <= rank f + d < s + d = n."""
    return GenericRankVerdict(target_rank=mats.n, certificate=ImpliedByF(mats.d), samples_tried=0)


def analyze_matrices(
    mats: NetworkMatrices,
    cfg: SamplerConfig | None = None,
    network: Optional[ReactionNetwork] = None,
) -> AnalysisReport:
    """Cone feasibility plus both generic-rank tests, in a report of
    ``mats`` that computes the rest from them.

    The rank tests run whether or not the positive kernel cone is empty.
    Each test's first sample is drawn here, from the stream that
    ``derive_seed`` labels "f-test" or "F-test", and its hunt continues
    from that stream.  The f-test draws u and reduces the f matrix there
    modulo p.  The F-test's sample is the f witness's u with only h
    drawn, and its echelon is the f-test's (reduced afresh when the
    witness was hunted) extended by W (``extend_by_w``).  After an
    AllDegenerate f-test the F verdict is ``implied_F_verdict``.
    Without ``network`` the report cannot be read back by
    ``cli.report_from_dict``, which derives the matrices from the reactions.
    """
    cfg = cfg or SamplerConfig()
    cone = positive_kernel_vector(mats.n_mat)
    f_matrix = f_test_matrix(mats)
    rng = random.Random(derive_seed(cfg.seed, "f-test"))
    u_vals, _ = _sample_point(rng, _SAMPLE_BOUND, mats.g.cols, None)
    echelon = EchelonModP(f_matrix(u_vals, None))
    f_verdict = generic_rank_test(f_matrix, mats.s, u_vals, None, echelon, rng, cols=mats.n, hard_cap=cfg.hard_cap)
    if not f_verdict.nondegenerate:
        return AnalysisReport(network, mats, cone, f_verdict, implied_F_verdict(mats))
    # the f witness's u, and only h drawn; a hunted witness was never reduced
    rng = random.Random(derive_seed(cfg.seed, "F-test"))
    u_vals = f_verdict.witness_u
    _, h_vals = _sample_point(rng, _SAMPLE_BOUND, 0, mats.n)
    if f_verdict.samples_tried > 1:
        echelon = EchelonModP(f_matrix(u_vals, None))
    echelon = extend_by_w(mats, echelon, h_vals)
    F_verdict = generic_rank_test(
        F_test_matrix(mats), mats.n, u_vals, h_vals, echelon, rng, cols=mats.n, hard_cap=cfg.hard_cap
    )
    return AnalysisReport(network, mats, cone, f_verdict, F_verdict)
