"""Spans around steershare's public functions, installed from outside.

`Tracer.install()` wraps every public function, every public method and
every dataclass `__post_init__` (counted as one construction) of the
layer modules.  `scenario` and `cli` bind names with `from .x import y`,
so a function is replaced at every module attribute that holds it, not
only where it is defined.  Spans stay in memory as flat arrays and are
written out once, after the run; `uninstall()` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "measurement", "steering", "scenario", "cli")

CLOSED_FORMS = ("steering.closed_form_nonlocal", "steering.closed_form_local")
WINDOW = "scenario.simultaneous_window"

# Per-layer metrics: name -> unit.  Self time is span time minus the time
# of direct child spans; `total_s` is inclusive span time.
METRICS = {
    "linalg.self_s": "s",
    "linalg.kron.calls": "count",
    "linalg.embed.calls": "count",
    "linalg.psd_sqrt.calls": "count",
    "linalg.hermitian_eig.calls": "count",
    "states.self_s": "s",
    "states.DensityMatrix.calls": "count",
    "states.compress.calls": "count",
    "states.bloch_form.calls": "count",
    "states.bloch_form.total_s": "s",
    "measurement.self_s": "s",
    "measurement.make_instrument.calls": "count",
    "measurement.luders_update.total_s": "s",
    "measurement.local_pair_update.total_s": "s",
    "steering.self_s": "s",
    "steering.closed_form.calls": "count",
    "steering.closed_form.total_s": "s",
    "steering.StrengthHistory.calls": "count",
    "steering.steering_parameter.calls": "count",
    "steering.ellipsoid.total_s": "s",
    "scenario.self_s": "s",
    "scenario.records_to_csv.total_s": "s",
    "scenario.csv_bytes": "bytes",
    "scenario.window.closed_form_per_call": "evals/call",
    "cli.self_s": "s",
    "cli.build_parser.total_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.csv_bytes = 0
        self.out_bytes = 0
        self.current_request = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        if qualname not in self._ids:
            self._ids[qualname] = len(self.names)
            self.names.append(qualname)
        nid = self._ids[qualname]
        is_csv = qualname == "scenario.records_to_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if is_csv:
                self.csv_bytes += len(result.encode())
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "steershare" or n.startswith("steershare.")]
        for layer in LAYERS:
            mod = sys.modules[f"steershare.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    for site in modules:  # every `from .x import y` binding
                        for key, val in list(vars(site).items()):
                            if val is obj:
                                self._patch(site, key, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{layer}.{attr}")

    def _wrap_class(self, cls, qualname: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__post_init__":
                self._patch(cls, attr, self._wrap(member, qualname))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, f"{qualname}.{attr}"))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrap(member.__func__, f"{qualname}.{attr}")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as one .npz: per span a name index into `names`, the parent
        span (-1 at top level), the request (top-level call) and the
        perf_counter start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.request, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def metrics(self, overhead_s: float, speed: list[float]) -> dict[str, float]:
        """Per-layer metrics; `speed[k]` scales the spans of request k to
        reference speed (see calibration.py)."""
        names = np.asarray(self.names + [""], dtype=object)
        nid = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        request = np.frombuffer(self.request, dtype=np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) \
            * np.asarray(speed)[request]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = np.array([n.split(".")[0] for n in names])[nid]

        def calls(*qualnames) -> int:
            ids = [self._ids[q] for q in qualnames if q in self._ids]
            return int(np.isin(nid, ids).sum())

        def total(*qualnames) -> float:
            ids = [self._ids[q] for q in qualnames if q in self._ids]
            return float(dur[np.isin(nid, ids)].sum())

        out = {f"{layer}.self_s": float(self_time[layer_of == layer].sum())
               for layer in LAYERS}
        for q in ("linalg.kron", "linalg.embed", "linalg.psd_sqrt",
                  "linalg.hermitian_eig", "states.DensityMatrix", "states.compress",
                  "states.bloch_form", "measurement.make_instrument",
                  "steering.StrengthHistory", "steering.steering_parameter"):
            out[f"{q}.calls"] = calls(q)
        for q in ("states.bloch_form", "measurement.luders_update",
                  "measurement.local_pair_update", "steering.ellipsoid",
                  "scenario.records_to_csv", "cli.build_parser"):
            out[f"{q}.total_s"] = total(q)
        out["steering.closed_form.calls"] = calls(*CLOSED_FORMS)
        out["steering.closed_form.total_s"] = total(*CLOSED_FORMS)
        out["scenario.csv_bytes"] = self.csv_bytes
        out["scenario.window.closed_form_per_call"] = self._per_window()
        out["cli.out_bytes"] = self.out_bytes
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name in METRICS}

    def _per_window(self) -> float:
        """Closed-form evaluations per window solve (bisection iterations)."""
        if WINDOW not in self._ids:
            return 0.0
        window, cf = self._ids[WINDOW], {self._ids.get(q) for q in CLOSED_FORMS}
        solves = inside = 0
        for sid, nid in enumerate(self.name):
            if nid == window:
                solves += 1
            elif nid in cf:
                p = self.parent[sid]
                while p >= 0 and self.name[p] != window:
                    p = self.parent[p]
                inside += p >= 0
        return inside / solves if solves else 0.0
