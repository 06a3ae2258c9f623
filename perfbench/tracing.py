"""Span tracing of planar_init's layers, installed from outside the package.

The package imports names with ``from .x import y``, so a function can be
reached through several module attributes (``planar_init.homography.estimate``
and ``planar_init.initializer.estimate`` are the same object).  ``Tracer``
replaces the function at every ``planar_init`` module attribute that holds
it, records one span per call in memory, and restores the originals when it
is uninstalled.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# layer (module) -> the public functions timed in it
LAYERS = {
    "simulator": ("make_dataset", "render_tracks", "synthesize_imu",
                  "write_dataset", "load_dataset"),
    "imu": ("propagate", "integrate_camera_rotation", "slice_between",
            "is_stationary"),
    "homography": ("estimate", "decompose", "filter_positive_depth", "indicator"),
    "pnp": ("solve_pnp", "refine_pose"),
    "motion_field": ("refine_velocity",),
    "weighting": ("stereo_deviation",),
    "initializer": ("run_initialization", "triangulate_stereo",
                    "refine_body_velocity", "select_solution"),
    "harness": ("select_window", "run_on_dataset", "evaluate", "full_trial", "run_sweep"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# function -> (work-count name, positional index, keyword name) of the argument
# whose length is the work the call does
WORK_COUNTS = {
    "imu.propagate": ("samples", 1, "samples"),
    "imu.integrate_camera_rotation": ("samples", 0, "samples"),
    "homography.estimate": ("correspondences", 0, "correspondences"),
    "pnp.solve_pnp": ("points", 0, "pairs"),
}

# orchestrators whose self time (span time minus child span time) is reported
SELF_TIMED = ("cli.main", "initializer.run_initialization", "harness.select_window")


class Tracer:
    """Records spans ``[name, start, end, parent, work]`` while installed.

    ``parent`` is the index of the enclosing span, or -1.  Spans are kept in
    memory until :meth:`write` is called.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str, work: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, work])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = WORK_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0
            if count is not None:
                _, pos, key = count
                work = len(args[pos] if len(args) > pos else kwargs[key])
            idx = tracer._open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # --------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every traced function at every module attribute holding it.

        A function that no longer exists under its layer is recorded in
        ``missing`` instead of failing, so the caller can report it.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "planar_init" or n.startswith("planar_init."))]
        self.missing = []
        for name in FUNCTIONS:
            layer, fn_name = name.split(".")
            home = sys.modules.get(f"planar_init.{layer}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- analysis
    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per-name totals over ``spans[first:last]``.

        Returns ``{name: {"calls", "ms", "self_ms", "work"}}``; self time is
        span time minus the time of its direct children.
        """
        spans = self.spans[first:last]
        child_s = [0.0] * len(spans)
        for s in spans:
            parent = s[3] - first
            if 0 <= parent < len(spans):
                child_s[parent] += s[2] - s[1]
        out: dict[str, dict] = {}
        for s, child in zip(spans, child_s):
            agg = out.setdefault(s[0], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0})
            dur = s[2] - s[1]
            agg["calls"] += 1
            agg["ms"] += 1e3 * dur
            agg["self_ms"] += 1e3 * (dur - child)
            agg["work"] += s[4]
        return out

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "work"],
             "spans": self.spans}))
