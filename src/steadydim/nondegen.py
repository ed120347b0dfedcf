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
not in s x n.  Each target rank is tested at one random integer point,
straight from the integer matrices: one forward pass modulo the prime
2^61 - 1 gives a submatrix that is nonsingular modulo p, hence over Q,
so a sample whose submatrix reaches the target is a proven witness.
Only when it falls short is the polynomial matrix built, in the same
sparse rows with MPoly entries, over the variables u_t (index t) and h_j
(index u_dim + j).  The sample's rank modulo p, rho, gives a nonsingular
rho x rho submatrix; its bordering (rho+1)-minors, each decided from the
blocks of that submatrix, either all vanish, which proves the rank is
rho everywhere (Kronecker's theorem; that submatrix and the sample are
the certificate), or one of them is a nonzero polynomial.  That minor is
sampled until it is nonzero, at a point of rank at least rho + 1: the
witness once rho + 1 reaches the target, else the next submatrix.
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
# imported by name: bench/tracer.py patches nondegen.all_minors_zero
from .mpoly import MPoly, all_minors_zero
from .netmodel import NetworkMatrices, ReactionNetwork
from .ratmat import RatMatrix, Rational, basis_mod_p

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
    """Settings of the randomized rank test, which draws one sample first,
    components from [-H, H] (u, zero excluded) or [1, H] (h),
    H = ``_SAMPLE_BOUND``.

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


def generic_rank_test(
    matrix: MatrixFn,
    target: int,
    cfg: SamplerConfig | None = None,
    *,
    u_dim: int,
    h_dim: Optional[int] = None,
    cols: int,
    rng: Optional[random.Random] = None,
) -> GenericRankVerdict:
    """Decide whether the matrix ``matrix(u, h)`` has rank >= ``target`` somewhere.

    ``matrix`` maps u (length ``u_dim``) and h (length ``h_dim``, or None)
    to its rows, each a dict {column: nonzero entry} over the columns
    0..``cols``-1, for numbers and for MPolys alike: a sample is the
    matrix at integer u and h, and the polynomial matrix is the same
    function at the variables u1.., h1...

    One sample first, with one forward pass modulo the prime
    ``ratmat.MODULUS``, ``basis_mod_p``: rows R and columns C of a
    submatrix that is nonsingular over Q.  If ``len(R) >= target`` the
    sample is the witness.  Otherwise the polynomial matrix is built, and
    while the basis (R, C), of size rho, falls short of the target, only
    the minors bordering it are decided symbolically:

      * all zero: the rank is rho over Q(u, h); AllDegenerate, with a
        ``BorderingCertificate`` of (R, C) and its sample;
      * one nonzero: it is sampled until it evaluates nonzero (doubling the
        sample bound whenever a round of ``_PIT_BUDGET`` samples is
        exhausted), a point of rank at least rho + 1.  If rho + 1 reaches the
        target that point is the witness; otherwise the minor and that point
        are the next basis and sample, so the loop runs at most
        target - rho rounds.

    ``samples_tried`` is 1 plus the hunted samples, which alone count
    toward ``hard_cap``.  A witness is an integer point at which the exact
    rank of the evaluated matrix is at least ``target``.  A negative
    target raises ValueError, and so does one above min(rows, cols) once
    the first sample has shown the matrix's shape.
    """
    if target < 0:
        raise ValueError(f"negative target rank {target}")
    cfg = cfg or SamplerConfig()
    rng = rng or random.Random(cfg.seed)
    bound = _SAMPLE_BOUND
    hunted = 0
    u_vals, h_vals = _sample_point(rng, bound, u_dim, h_dim)
    rows = matrix(u_vals, h_vals)
    if target > min(len(rows), cols):
        raise ValueError(f"target rank {target} out of range for {len(rows)}x{cols}")
    basis = basis_mod_p(rows)
    symbolic = _symbolic(matrix, u_dim, h_dim) if len(basis[0]) < target else None
    while len(basis[0]) < target:
        vanish, witness = all_minors_zero(symbolic, cols, len(basis[0]) + 1, basis=basis)
        if vanish:
            return GenericRankVerdict(
                target_rank=target,
                certificate=BorderingCertificate(*basis, u_vals, h_vals),
                samples_tried=1 + hunted,
            )
        # sample until the minor is nonzero, a point of rank at least its
        # size; the bound doubles after each round of _PIT_BUDGET samples
        for tries in itertools.count(1):
            if cfg.hard_cap is not None and hunted >= cfg.hard_cap:
                raise BudgetExhausted(
                    f"no nonzero evaluation of minor {witness.rows}x{witness.cols} "
                    f"within {cfg.hard_cap} samples"
                )
            u_vals, h_vals = _sample_point(rng, bound, u_dim, h_dim)
            hunted += 1
            if witness.poly.eval(u_vals + (h_vals or ())):
                break
            if tries % _PIT_BUDGET == 0:
                bound *= 2
        basis = (witness.rows, witness.cols)
    return GenericRankVerdict(
        target_rank=target,
        witness_u=u_vals,
        witness_h=h_vals,
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
    After an AllDegenerate f-test the F verdict is ``implied_F_verdict``.
    Without ``network`` the report cannot be read back by
    ``cli.report_from_dict``, which derives the matrices from the reactions.
    """
    cfg = cfg or SamplerConfig()
    cone = positive_kernel_vector(mats.n_mat)

    def rank_test(matrix: MatrixFn, target: int, label: str, h_dim=None) -> GenericRankVerdict:
        rng = random.Random(derive_seed(cfg.seed, label))
        return generic_rank_test(matrix, target, cfg, u_dim=mats.g.cols, h_dim=h_dim, cols=mats.n, rng=rng)

    f_verdict = rank_test(f_test_matrix(mats), mats.s, "f-test")
    if f_verdict.nondegenerate:
        F_verdict = rank_test(F_test_matrix(mats), mats.n, "F-test", mats.n)
    else:
        F_verdict = implied_F_verdict(mats)
    return AnalysisReport(network, mats, cone, f_verdict, F_verdict)
