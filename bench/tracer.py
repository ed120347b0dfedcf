"""Span recorder for the traced benchmark run.

The recorder wraps public functions of each steadydim module from the
outside, patching each name where its caller looks it up: a module that
imports a function by name (``cli`` imports ``parse_network``,
``nondegen`` imports ``positive_kernel_vector``) is patched in the
importing module, methods are patched on their class.  Each wrapped call
records a span (name, start, end, parent, op id, network index) in
memory; self time is derived from the spans afterwards.

``MPoly.eval`` runs tens of thousands of times per verdict on large
networks, so a span per call would distort the run.  It is recorded as a
call count and summed time charged to the enclosing span instead.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

ROOT = "cli.main"
EVAL = "mpoly.eval"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the parent span, None for an op's root
    op: int  # operation number, shared by the spans of one analyze call
    net: int  # index of the network the operation analyzes


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped function."""
    from steadydim import cli, mpoly, nondegen
    from steadydim.mpoly import MPoly
    from steadydim.netmodel import NetworkMatrices
    from steadydim.ratmat import RatMatrix

    out = [
        (cli, "parse_network", "netmodel.parse_network"),
        (NetworkMatrices, "from_network", "netmodel.from_network"),
        (cli, "analyze", "nondegen.analyze"),
        (nondegen, "positive_kernel_vector", "cone.positive_kernel_vector"),
        (nondegen, "symbolic_jacobian_f", "nondegen.symbolic_jacobian_f"),
        (nondegen, "symbolic_jacobian_F", "nondegen.symbolic_jacobian_F"),
        (nondegen, "generic_rank_test", "nondegen.generic_rank_test"),
        (nondegen, "all_minors_zero", "mpoly.all_minors_zero"),
        (mpoly, "det", "mpoly.det"),
        (MPoly, "eval", EVAL),
        (cli, "report_to_dict", "cli.report_to_dict"),
    ]
    for meth in ("rref", "rank", "kernel_basis", "row_basis", "left_kernel_basis", "mul_vec"):
        out.append((RatMatrix, meth, f"ratmat.{meth}"))
    return out


class Recorder:
    """Holds the spans of a traced run and the patches that produce them."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        # span index -> [calls, seconds] of MPoly.eval made directly inside it
        self.evals: dict[int, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._op = -1
        self._net = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for owner, attr, name in targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        if name == EVAL:
            return self._wrap_counted(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._op, self._net)

        return wrapper

    def _wrap_counted(self, fn):
        evals, stack = self.evals, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = evals[stack[-1]]
                acc[0] += 1
                acc[1] += perf_counter() - start

        return wrapper

    # -- one operation ---------------------------------------------------------

    def call(self, op: int, net: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op`` on network ``net`` under a root span."""
        self._op, self._net = op, net
        return self._wrap(ROOT, fn)(*args)

    # -- analysis -----------------------------------------------------------------

    def op_profiles(self) -> list[tuple[int, float, dict, dict]]:
        """Per operation: (op, duration, self, calls).

        ``self`` maps span name to self seconds: the span's duration minus
        the time its child spans and the MPoly.eval calls inside it cover.
        ``calls`` maps span name to the number of calls.
        """
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        for idx, (_, secs) in self.evals.items():
            child[idx] += secs
        out: dict[int, tuple[int, float, dict, dict]] = {}
        root_of: dict[int, int] = {}
        for idx, sp in enumerate(self.spans):
            if sp.parent is None:
                root_of[idx] = idx
                out[idx] = (sp.op, sp.end - sp.start, defaultdict(float), defaultdict(int))
            else:
                root_of[idx] = root_of[sp.parent]
            _, _, selfs, calls = out[root_of[idx]]
            selfs[sp.name] += sp.end - sp.start - child[idx]
            calls[sp.name] += 1
            if idx in self.evals:
                n, secs = self.evals[idx]
                selfs[EVAL] += secs
                calls[EVAL] += n
        return list(out.values())

    def write(self, path) -> None:
        """Write the spans as JSON lines, eval aggregates attached to their span."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, sp in enumerate(self.spans):
                rec = {"id": idx, "name": sp.name, "start": sp.start, "end": sp.end,
                       "parent": sp.parent, "op": sp.op, "net": sp.net}
                if idx in self.evals:
                    rec["eval_calls"], rec["eval_s"] = self.evals[idx]
                fh.write(json.dumps(rec) + "\n")
