"""Span tracing of a campaign from outside the ``mace`` package.

For the duration of a traced run, :func:`traced` replaces public callables at
the module attribute their caller resolves them through (``mace.engine.fit_gp``
is what the engine loop calls, ``mace.gp.minimize`` what ``fit_gp`` calls, and
so on), so no file of the package changes.  Each call leaves a :class:`Span`
with its name, start, end, parent span and run id; spans stay in memory until
the benchmark writes them out.  :func:`layer_metrics` turns one run's spans
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from mace import cli, demo, engine, gp

SORT_SPANS = ("demo.fast_non_dominated_fronts", "demo.non_dominated_mask", "demo.crowding_distance")


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects nested spans; ``run`` labels the spans of the current campaign."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[Span] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` timed as a span; ``attrs(args, result)`` adds counts after it closes."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = Span(len(self.spans), name, self.run,
                        self._open[-1].id if self._open else None, time.perf_counter())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced_call

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _predict_attrs(args, result):
    return {"rows": int(np.atleast_2d(args[1]).shape[0])}


def _score_attrs(args, result):
    return {"rows": int(np.atleast_2d(args[0]).shape[0])}


def _minimize_attrs(args, result):
    ok = bool(result.success) and bool(np.isfinite(result.fun))
    return {"nfev": int(result.nfev), "failed": int(not ok)}


def _demo_attrs(args, result):
    return {"members": len(result)}


def _sample_attrs(args, result):
    pareto = args[0]
    return {
        "members": len(pareto),
        "unique": int(engine._dedup_indices(pareto.points).size),
        "points": len(result.provenance),
        "fallback_points": result.provenance.count("fallback-random"),
    }


def _prune_attrs(args, result):
    return {"fallback": int(result[1])}


@contextmanager
def traced(tracer: Tracer):
    """Route the engine's calls into each layer through ``tracer`` until exit."""
    targets = [
        (engine, "fit_gp", None),
        (engine, "predict", _predict_attrs),
        (engine, "demo_optimize", _demo_attrs),
        (engine, "prune_candidates", _prune_attrs),
        (engine, "sample_batch", _sample_attrs),
        (gp, "build_gp", None),
        (gp, "minimize", _minimize_attrs),
        (demo, "fast_non_dominated_fronts", None),
        (demo, "non_dominated_mask", None),
        (demo, "crowding_distance", None),
        (cli, "external_evaluate", None),
    ]
    builders = ("build_unconstrained_objectives", "build_stage1_objectives", "build_stage2_objectives")
    saved = []
    try:
        for module, attr, attrs in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            layer = module.__name__.rsplit(".", 1)[-1]
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", original, attrs))
        for attr in builders:
            original = getattr(engine, attr)
            saved.append((engine, attr, original))
            setattr(engine, attr, _scoring_builder(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _scoring_builder(tracer: Tracer, builder):
    @functools.wraps(builder)
    def build(*args, **kwargs):
        return tracer.wrap("acq.score", builder(*args, **kwargs), _score_attrs)

    return build


def layer_metrics(spans: list[Span], proposal_ms: list[float], eval_ms: list[float], wall_s: float) -> dict:
    """Per-layer totals of one traced campaign (milliseconds and counts per run)."""
    by_name: dict[str, list[Span]] = {}
    child_ms: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms

    def total(name, key=None):
        group = by_name.get(name, [])
        return float(sum(s.attrs[key] if key else s.ms for s in group))

    def self_ms(name):
        return float(sum(s.ms - child_ms.get(s.id, 0.0) for s in by_name.get(name, [])))

    wall_ms = wall_s * 1000.0
    top_level_ms = sum(s.ms for s in spans if s.parent is None and s.name != "cli.external_evaluate")
    return {
        "gp.fit.calls": len(by_name.get("engine.fit_gp", [])),
        "gp.fit.ms": total("engine.fit_gp"),
        "gp.fit.share": total("engine.fit_gp") / wall_ms,
        "gp.fit.nfev": total("gp.minimize", "nfev"),
        "gp.fit.failed_restarts": total("gp.minimize", "failed"),
        "gp.build.ms": total("gp.build_gp"),
        "gp.predict.calls": len(by_name.get("engine.predict", [])),
        "gp.predict.rows": total("engine.predict", "rows"),
        "gp.predict.ms": total("engine.predict"),
        "acq.score.calls": len(by_name.get("acq.score", [])),
        "acq.score.rows": total("acq.score", "rows"),
        "acq.score.self_ms": self_ms("acq.score"),
        "demo.calls": len(by_name.get("engine.demo_optimize", [])),
        "demo.ms": total("engine.demo_optimize"),
        "demo.share": total("engine.demo_optimize") / wall_ms,
        "demo.sort_ms": sum(total(name) for name in SORT_SPANS),
        "demo.self_ms": self_ms("engine.demo_optimize"),
        "demo.front_size": total("engine.demo_optimize", "members") / max(1, len(by_name.get("engine.demo_optimize", []))),
        "demo.unique_ratio": total("engine.sample_batch", "unique") / max(1.0, total("engine.sample_batch", "members")),
        "engine.prune.share": total("engine.prune_candidates") / wall_ms,
        "engine.prune.fallbacks": total("engine.prune_candidates", "fallback"),
        "engine.sample.ms": total("engine.sample_batch"),
        "engine.fallback_share": total("engine.sample_batch", "fallback_points") / max(1.0, total("engine.sample_batch", "points")),
        "engine.self_ms": sum(proposal_ms) - top_level_ms,
        "eval.batch_ms": float(np.mean(eval_ms)),
        "cli.ext.share": total("cli.external_evaluate") / wall_ms,
        "cli.ext.spawns": len(by_name.get("cli.external_evaluate", [])),
    }
