"""Spans and per-layer counters recorded around the public functions of each layer.

A ``Tracer`` wraps the functions named in ``TARGETS`` at every place they are
bound: the defining module, every ``delpezzo`` module that imported the name,
and the class for methods.  Each call records a span (name, start, end, parent,
request id) in compact in-memory columns; self time is the span's duration
minus the time covered by its wrapped children.  The caller writes the spans
out once, at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute path, span name).  Span names become metric prefixes.
TARGETS = [
    ("exactnum", "rational_roots", "exactnum.rational_roots"),
    ("exactnum", "Poly.integrate", "exactnum.Poly.integrate"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "is_negative_definite", "linalg.is_negative_definite"),
    ("linalg", "symmetric_signature", "linalg.symmetric_signature"),
    ("lp", "eq_feasibility", "lp.eq_feasibility"),
    ("lattice", "SurfaceModel.intersect", "lattice.SurfaceModel.intersect"),
    ("lattice", "is_nef", "lattice.is_nef"),
    ("lattice", "model_from_dict", "lattice.model_from_dict"),
    ("lattice", "SurfaceModel.validate", "lattice.SurfaceModel.validate"),
    ("positivity", "pseff_certificate", "positivity.pseff_certificate"),
    ("positivity", "zariski", "positivity.zariski"),
    ("positivity", "ZariskiDecomp.verify", "positivity.ZariskiDecomp.verify"),
    ("positivity", "volume_profile", "positivity.volume_profile"),
    ("valuative", "resolve_divisor_spec", "valuative.resolve_divisor_spec"),
    ("valuative", "beta_report", "valuative.beta_report"),
    ("valuative", "profile_for", "valuative.profile_for"),
    ("azflag", "flag_from_divisor", "azflag.flag_from_divisor"),
    ("azflag", "restricted_S", "azflag.restricted_S"),
    ("gitcubic", "barycenter_in_hull", "gitcubic.barycenter_in_hull"),
    ("gitcubic", "brute_force_destabilizer", "gitcubic.brute_force_destabilizer"),
    ("gitcubic", "torus_destabilizer", "gitcubic.torus_destabilizer"),
    ("catalog", "_builtin", "catalog.load"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "run", "cli.run"),
    ("report", "Report.render", "report.Report.render"),
]


def _max_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _lp_cells(args) -> int:
    a = args[0]
    m = len(a)
    n = len(a[0]) if m else 0
    return m * (n + m + 1)


# Extra exact counters: span name -> (counter, function of (args, result)).
# "max_bits" keeps the maximum; every other counter is summed.
_EXTRAS = {
    "linalg.solve": [("max_bits", lambda args, res: _max_bits(res))],
    "lp.eq_feasibility": [("cells", lambda args, res: _lp_cells(args)),
                          ("feasible", lambda args, res: int(res.feasible))],
    "positivity.pseff_certificate": [("feasible", lambda args, res: int(res[0]))],
    "positivity.zariski": [("support_size", lambda args, res: len(res.negative))],
    "positivity.volume_profile": [("chambers", lambda args, res: len(res.chambers))],
}


class Tracer:
    """Records spans and aggregates per span name; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_request = array("i")
        self.stats: dict[str, dict] = {}
        self.first_s: dict[str, float] = {}
        self.request = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._paused = 0
        self._restore: list[tuple[object, str, object]] = []

    # --- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site among loaded delpezzo modules."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "delpezzo" or name.startswith("delpezzo.")}
        for modname, path, span in TARGETS:
            owner = mods.get(f"delpezzo.{modname}")
            if owner is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], span))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(orig, span)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _patch(self, obj, attr, wrapper) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _wrap(self, fn, span: str):
        name_id = self._name_id(span)
        stat = self.stats.setdefault(span, {"calls": 0, "self_s": 0.0})
        extras = _EXTRAS.get(span, ())
        for key, _ in extras:
            stat.setdefault(key, 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.sp_name)
            self.sp_name.append(name_id)
            self.sp_parent.append(self._stack[-1][0] if self._stack else -1)
            self.sp_request.append(self.request)
            self.sp_end.append(0.0)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = clock()
            self.sp_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.sp_end[idx] = end
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                stat["calls"] += 1
                stat["self_s"] += dur - frame[1]
                self.first_s.setdefault(span, dur)
            for key, fn_extra in extras:
                value = fn_extra(args, result)
                stat[key] = max(stat[key], value) if key == "max_bits" else stat[key] + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _name_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        return self._name_ids[span]

    @contextmanager
    def removed(self):
        """Run the block on the unwrapped program (the overhead baseline)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not the program's work."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # --- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates, mergeable across processes with ``merge``."""
        return {"stats": {k: dict(v) for k, v in self.stats.items()},
                "first_s": dict(self.first_s)}

    def spans(self) -> dict:
        """The recorded spans as parallel columns; ``names`` maps name ids."""
        return {"names": self.names, "name": self.sp_name.tolist(),
                "start": self.sp_start.tolist(), "end": self.sp_end.tolist(),
                "parent": self.sp_parent.tolist(), "request": self.sp_request.tolist()}


def merge(snapshots: list[dict]) -> dict:
    """Sum per-process aggregates; ``first_s`` becomes the per-process median."""
    stats: dict[str, dict] = {}
    firsts: dict[str, list[float]] = {}
    for snap in snapshots:
        for span, stat in snap["stats"].items():
            into = stats.setdefault(span, {})
            for key, value in stat.items():
                if key == "max_bits":
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
        for span, value in snap["first_s"].items():
            firsts.setdefault(span, []).append(value)
    return {"stats": stats,
            "first_s": {k: sorted(v)[len(v) // 2] for k, v in firsts.items()}}
