"""Command-line front end.

Subcommands:

  analyze PATH      full verdict for a .crn file (or, for a directory,
                    one JSON-lines record per .crn file inside)
  matrices PATH     print the gamma/b/n_mat/w_mat quadruple
  check-point PATH  residual and degeneracy of an explicit (kappa, x)

Exit codes: 0 success (whatever the verdict), 1 parse/usage error (or,
in directory mode, any file that could not be analyzed), 2 internal
error.  ``--seed`` falls back to the STEADYDIM_SEED environment
variable, then 0; with a fixed seed the JSON output is byte-identical
across runs.  Rationals are serialized as strings "p/q" to avoid any
precision loss.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .cone import ConeResult, ConeStatus
from .netmodel import NetworkMatrices, ParseError, ReactionNetwork, parse_network
from .nondegen import (
    AnalysisReport,
    ClassesConclusion,
    GenericRankVerdict,
    RankTestStatus,
    SamplerConfig,
    SteadyStateCheck,
    VarietyConclusion,
    analyze,
    check_steady_state,
    derive_seed,
)
from .ratmat import RatMatrix

SCHEMA_VERSION = 2


class UsageError(ValueError):
    pass


# -- JSON serialization ------------------------------------------------------


def _frac_list(vec) -> Optional[list[str]]:
    if vec is None:
        return None
    return [str(Fraction(x)) for x in vec]


def _parse_frac_list(vec) -> Optional[tuple[Fraction, ...]]:
    if vec is None:
        return None
    return tuple(Fraction(x) for x in vec)


def network_to_dict(net: ReactionNetwork, dims: tuple[int, int, int, int]) -> dict:
    n, r, s, d = dims
    return {
        "n": n,
        "r": r,
        "s": s,
        "d": d,
        "species": list(net.species) if net is not None else None,
        "reactions": [rx.render(net.species) for rx in net.reactions] if net is not None else None,
    }


def _verdict_to_dict(v: GenericRankVerdict, include_h: bool) -> dict:
    out = {
        "status": v.status.value,
        "target_rank": v.target_rank,
        "witness_u": _frac_list(v.witness_u),
    }
    if include_h:
        out["witness_h"] = _frac_list(v.witness_h)
    out["witness_w"] = _frac_list(v.witness_w)
    out["certificate"] = list(v.certificate) if v.certificate is not None else None
    out["samples_tried"] = v.samples_tried
    return out


def _verdict_from_dict(d: dict) -> GenericRankVerdict:
    cert = d.get("certificate")
    return GenericRankVerdict(
        target_rank=d["target_rank"],
        status=RankTestStatus(d["status"]),
        witness_u=_parse_frac_list(d.get("witness_u")),
        witness_h=_parse_frac_list(d.get("witness_h")),
        witness_w=_parse_frac_list(d.get("witness_w")),
        certificate=tuple(cert) if cert is not None else None,
        samples_tried=d["samples_tried"],
    )


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "network": network_to_dict(report.network, report.dims),
        "cone": {
            "exists": report.cone.exists,
            "witness": _frac_list(report.cone.witness),
        },
        "f_test": _verdict_to_dict(report.f_verdict, include_h=False),
        "F_test": _verdict_to_dict(report.F_verdict, include_h=True),
        "conclusions": {
            "steady_state_variety": report.conclusion_f.value,
            "compatibility_classes": report.conclusion_F.value,
        },
        "notes": list(report.notes),
    }


def report_from_dict(d: dict) -> AnalysisReport:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    netinfo = d["network"]
    network = None
    if netinfo.get("reactions") is not None:
        network = parse_network("\n".join(netinfo["reactions"]))
        if list(network.species) != netinfo["species"]:
            raise ValueError("species list does not match reactions")
    witness = _parse_frac_list(d["cone"].get("witness"))
    cone = ConeResult(
        status=ConeStatus.POSITIVE_VECTOR_EXISTS if d["cone"]["exists"] else ConeStatus.EMPTY,
        witness=witness,
    )
    return AnalysisReport(
        network=network,
        dims=(netinfo["n"], netinfo["r"], netinfo["s"], netinfo["d"]),
        cone=cone,
        f_verdict=_verdict_from_dict(d["f_test"]),
        F_verdict=_verdict_from_dict(d["F_test"]),
        conclusion_f=VarietyConclusion(d["conclusions"]["steady_state_variety"]),
        conclusion_F=ClassesConclusion(d["conclusions"]["compatibility_classes"]),
        notes=tuple(d["notes"]),
    )


def _int_matrix(m: RatMatrix) -> list[list[int]]:
    return [[int(x) for x in m.row(i)] for i in range(m.rows)]


def matrices_to_dict(net: ReactionNetwork, mats: NetworkMatrices) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "network": network_to_dict(net, (mats.n, mats.r, mats.s, mats.d)),
        "gamma": _int_matrix(mats.gamma),
        "b": _int_matrix(mats.b),
        "n_mat": _int_matrix(mats.n_mat),
        "w_mat": _int_matrix(mats.w_mat),
    }


def check_to_dict(net: ReactionNetwork, mats: NetworkMatrices, chk: SteadyStateCheck) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "network": network_to_dict(net, (mats.n, mats.r, mats.s, mats.d)),
        "kappa": _frac_list(chk.kappa),
        "x": _frac_list(chk.x),
        "residual_zero": chk.residual_zero,
        "jacobian": [[str(x) for x in chk.jacobian.row(i)] for i in range(chk.jacobian.rows)],
        "stacked_rank": chk.stacked_rank,
        "degenerate": chk.degenerate,
    }


# -- text rendering ------------------------------------------------------------


def _conclusion_f_text(c: VarietyConclusion, d: int) -> str:
    if c is VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S:
        return f"generic dimension n-s = {d}"
    if c is VarietyConclusion.EMPTY_OR_HIGHER_DIMENSIONAL:
        return "empty or higher-dimensional for almost all rate constants"
    return "no positive steady states for any rate constants"


def _conclusion_F_text(c: ClassesConclusion) -> str:
    if c is ClassesConclusion.GENERICALLY_FINITE:
        return "generically finite"
    if c is ClassesConclusion.GENERICALLY_EMPTY_OR_INFINITE:
        return "generically empty or infinite"
    return "no positive steady states for any rate constants"


def _vec_text(vec) -> str:
    return " ".join(str(Fraction(x)) for x in vec)


def _verdict_lines(name: str, v: GenericRankVerdict) -> list[str]:
    lines = []
    if v.nondegenerate:
        lines.append(
            f"{name}: nondegenerate solution exists "
            f"(target rank {v.target_rank}, samples tried {v.samples_tried})"
        )
        lines.append(f"{name} witness u: {_vec_text(v.witness_u)}")
        if v.witness_h is not None:
            lines.append(f"{name} witness h: {_vec_text(v.witness_h)}")
        if v.witness_w is not None:
            lines.append(f"{name} witness w: {_vec_text(v.witness_w)}")
    else:
        lines.append(
            f"{name}: all solutions degenerate "
            f"(target rank {v.target_rank}, samples tried {v.samples_tried})"
        )
        for line in v.certificate:
            lines.append(f"{name} certificate: {line}")
    return lines


def render_report_text(report: AnalysisReport) -> str:
    n, r, s, d = report.dims
    lines = [f"network: n={n} r={r} s={s} d={d}"]
    if report.network is not None:
        lines.append("species: " + " ".join(report.network.species))
    if report.cone.exists:
        lines.append("cone: positive kernel vector exists")
        lines.append(f"cone witness: {_vec_text(report.cone.witness)}")
    else:
        lines.append("cone: empty (no strictly positive kernel vector)")
    lines.extend(_verdict_lines("f_test", report.f_verdict))
    lines.extend(_verdict_lines("F_test", report.F_verdict))
    lines.append(f"conclusion_f: {_conclusion_f_text(report.conclusion_f, d)}")
    lines.append(f"conclusion_F: {_conclusion_F_text(report.conclusion_F)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _matrix_lines(name: str, m: RatMatrix) -> list[str]:
    lines = [f"{name} ({m.rows}x{m.cols}):"]
    for i in range(m.rows):
        lines.append("  " + " ".join(str(x) for x in m.row(i)))
    return lines


def render_matrices_text(net: ReactionNetwork, mats: NetworkMatrices) -> str:
    lines = [f"network: n={mats.n} r={mats.r} s={mats.s} d={mats.d}"]
    lines.append("species: " + " ".join(net.species))
    for name, m in (("gamma", mats.gamma), ("b", mats.b), ("n_mat", mats.n_mat), ("w_mat", mats.w_mat)):
        lines.extend(_matrix_lines(name, m))
    return "\n".join(lines)


def render_check_text(mats: NetworkMatrices, chk: SteadyStateCheck) -> str:
    steady = "yes" if chk.residual_zero else "no"
    degen = "yes" if chk.degenerate else "no"
    lines = [
        f"steady state: {steady}; degenerate: {degen}",
        f"kappa: {_vec_text(chk.kappa)}",
        f"x: {_vec_text(chk.x)}",
    ]
    lines.extend(_matrix_lines("jacobian", chk.jacobian))
    lines.append(f"stacked rank: {chk.stacked_rank} (n = {mats.n})")
    if not chk.residual_zero:
        lines.append("note: the point is not a steady state; degeneracy data is informational")
    return "\n".join(lines)


# -- commands --------------------------------------------------------------------


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STEADYDIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"STEADYDIM_SEED must be an integer, got {env!r}") from exc
    return 0


def _config_from_args(args, seed: int) -> SamplerConfig:
    try:
        return SamplerConfig(
            seed=seed,
            retries=args.retries,
            sample_bound=args.bound,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_network(path: Path) -> ReactionNetwork:
    return parse_network(path.read_text(encoding="utf-8"))


def cmd_analyze(args) -> int:
    path = Path(args.path)
    cfg = _config_from_args(args, _resolve_seed(args))
    if path.is_dir():
        return _analyze_batch(path, cfg)
    report = analyze(_read_network(path), cfg)
    if args.json:
        print(json.dumps(report_to_dict(report)))
    else:
        print(render_report_text(report))
    return 0


def _analyze_batch(directory: Path, cfg: SamplerConfig) -> int:
    """One JSON-lines record per .crn file, in sorted path order.

    Per-file RNG streams are derived from (seed, file name), so records
    do not depend on processing order or on the directory's location.
    ``cfg`` was validated once by the caller, so a bad option is one
    usage error, not an error record per file.  A file that fails for
    any reason becomes a ``{"path", "error"}`` record; the rest are still
    analyzed and the exit code is 1.
    """
    failed = False
    for path in sorted(directory.glob("*.crn")):
        record: dict = {"path": str(path)}
        try:
            report = analyze(_read_network(path), replace(cfg, seed=derive_seed(cfg.seed, path.name)))
            record.update(report_to_dict(report))
        except (ParseError, OSError) as exc:
            record["error"] = str(exc)
            failed = True
        except Exception as exc:  # noqa: BLE001 - one file must not stop the batch
            record["error"] = f"internal error: {exc!r}"
            failed = True
        print(json.dumps(record))
    return 1 if failed else 0


def cmd_matrices(args) -> int:
    net = _read_network(Path(args.path))
    mats = NetworkMatrices.from_network(net)
    if args.json:
        print(json.dumps(matrices_to_dict(net, mats)))
    else:
        print(render_matrices_text(net, mats))
    return 0


def _parse_positive_vector(text: str, what: str) -> tuple[Fraction, ...]:
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            value = Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{what}: cannot parse {part!r} as a rational") from exc
        if value <= 0:
            raise UsageError(f"{what}: entries must be strictly positive, got {part}")
        values.append(value)
    return tuple(values)


def cmd_check_point(args) -> int:
    net = _read_network(Path(args.path))
    mats = NetworkMatrices.from_network(net)
    kappa = _parse_positive_vector(args.kappa, "--kappa")
    x = _parse_positive_vector(args.x, "--x")
    if len(kappa) != mats.r:
        raise UsageError(f"--kappa needs {mats.r} entries, got {len(kappa)}")
    if len(x) != mats.n:
        raise UsageError(f"--x needs {mats.n} entries, got {len(x)}")
    chk = check_steady_state(mats, kappa, x)
    if args.json:
        print(json.dumps(check_to_dict(net, mats, chk)))
    else:
        print(render_check_text(mats, chk))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steadydim",
        description=(
            "Decide, with exact rational arithmetic, whether a mass-action "
            "network admits nondegenerate steady states: whether its steady-state "
            "variety generically has the expected dimension and whether "
            "compatibility classes generically contain finitely many steady states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a .crn file (or every .crn in a directory)")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    p_analyze.add_argument("--seed", type=int, default=None, help="RNG seed (default: STEADYDIM_SEED or 0)")
    p_analyze.add_argument("--retries", type=int, default=5, help="samples before the symbolic fallback")
    p_analyze.add_argument("--bound", type=int, default=65536, help="sampling bound H")
    p_analyze.set_defaults(func=cmd_analyze)

    p_matrices = sub.add_parser("matrices", help="print gamma, b, n_mat, w_mat")
    p_matrices.add_argument("path")
    p_matrices.add_argument("--json", action="store_true")
    p_matrices.set_defaults(func=cmd_matrices)

    p_check = sub.add_parser("check-point", help="check an explicit steady-state candidate")
    p_check.add_argument("path")
    p_check.add_argument("--kappa", required=True, help="comma-separated positive rationals, length r")
    p_check.add_argument("--x", required=True, help="comma-separated positive rationals, length n")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check_point)

    return parser


# built once: a parser per call would leave its objects in reference cycles
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
