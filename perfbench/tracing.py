"""Spans and counters around loxo's public functions, kept in memory.

``Tracer.install`` replaces each traced function in every loxo module that
binds it, so calls made inside the package (``loxo.pipeline.spectrum``,
``loxo.enumeration.classify``, ...) are seen as well as the benchmark's
own.  A span records (name, start, end, parent); a span's self time is its
duration minus the time its child spans cover.  Counters are kept at the
same boundaries.  ``uninstall`` puts the original functions back.
"""

import array
import sys
import time

# Functions that get a span: (defining module, function name).
SPANNED = (
    ("enumeration", "enumerate_ball"),
    ("enumeration", "spectrum"),
    ("enumeration", "shortest_screw"),
    ("enumeration", "fuchsian_test"),
    ("enumeration", "thrice_punctured_test"),
    ("isometry", "classify"),
    ("isometry", "complex_length"),
    ("geometry", "geodesic_separation"),
    ("certification", "simplicity_check"),
    ("halfturn", "invariant_plane"),
    ("pipeline", "classify_manifold"),
    ("pipeline", "emit_report"),
    ("pipeline", "load_group_file"),
)
# Functions whose calls are counted without a span.
COUNTED = (
    ("geometry", "transform_line"),
    ("geometry", "preserves_circle"),
    ("geometry", "axis_of"),
)

LOXO_MODULES = (
    "loxo", "loxo.isometry", "loxo.geometry", "loxo.halfturn",
    "loxo.enumeration", "loxo.certification", "loxo.pipeline", "loxo.cli",
)


class WatchedList(list):
    """A spectrum result that notes whether anyone looked at its entries."""

    read = False

    def __iter__(self):
        self.read = True
        return super().__iter__()

    def __getitem__(self, index):
        self.read = True
        return super().__getitem__(index)

    def __len__(self):
        self.read = True
        return super().__len__()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.self_time = {}
        self.calls = {}
        self.counts = {}
        self._stack = []
        self._watched = []
        self._restore = []
        # spans and counts are taken only while an operation runs
        self.active = False

    # -- recording -------------------------------------------------------

    def count(self, name, n=1):
        if not self.active:
            return
        self.counts[name] = self.counts.get(name, 0) + n

    def _current(self):
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else None

    def _span(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(ident)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.span_start[index] = start
            self.span_end[index] = end
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][1] += duration

    # -- per-function hooks ----------------------------------------------

    def _after(self, name, args, kwargs, result):
        if name == "enumeration.enumerate_ball":
            self.count("enumeration.ball_words", len(result))
        elif name == "enumeration.spectrum":
            self.count("enumeration.spectrum.kept", len(result))
            result = WatchedList(result)
            result.read = False
            self._watched.append(result)
        elif name == "pipeline.classify_manifold":
            self.count(
                "pipeline.spectrum_unused",
                sum(1 for entries in self._watched if not entries.read),
            )
            self._watched = []
        elif name == "certification.simplicity_check":
            ball = kwargs.get("ball", args[4] if len(args) > 4 else None)
            if ball is not None:
                scanned = len(ball)
                if result.witness is not None:
                    scanned = next(
                        i for i, w in enumerate(ball) if w is result.witness
                    ) + 1
                self.count("certification.translates_scanned", scanned)
        return result

    def _wrap_span(self, name, fn):
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if not self.active:
                return result
            return self._after(name, args, kwargs, result)

        return traced

    def _wrap_count(self, name, fn):
        def counted(*args, **kwargs):
            self.count(name + ".calls")
            if name == "geometry.axis_of" and self._current() == "enumeration.spectrum":
                self.count("enumeration.spectrum.candidates")
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def _replace(self, original, replacement):
        for module_name in LOXO_MODULES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _patch_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    def install(self):
        import loxo.cli  # noqa: F401  (bind every module that may call in)
        import loxo.enumeration as enumeration
        import loxo.isometry as isometry

        for module_name, func in SPANNED:
            original = getattr(sys.modules["loxo." + module_name], func)
            self._replace(original, self._wrap_span(module_name + "." + func, original))
        for module_name, func in COUNTED:
            original = getattr(sys.modules["loxo." + module_name], func)
            self._replace(original, self._wrap_count(module_name + "." + func, original))

        tracer = self
        find = enumeration.MatrixStore.find

        def traced_find(store, m):
            value = find(store, m)
            tracer.count("enumeration.store_probes")
            if value is not None and tracer._current() == "enumeration.enumerate_ball":
                tracer.count("enumeration.ball_merges")
            return value

        self._patch_method(enumeration.MatrixStore, "find", traced_find)

        psl_distance = isometry.MoebiusIsometry.psl_distance

        def traced_psl_distance(m, other):
            tracer.count("isometry.psl_distance.calls")
            return psl_distance(m, other)

        self._patch_method(isometry.MoebiusIsometry, "psl_distance", traced_psl_distance)

        # w h w^-1 products built for the translate orbit of a spectrum entry
        axis_orbit = getattr(enumeration, "_axis_orbit", None)
        if axis_orbit is not None:
            def traced_axis_orbit(entry, ball):
                tracer.count("enumeration.spectrum.orbit_products", len(ball))
                return axis_orbit(entry, ball)

            self._patch_method(enumeration, "_axis_orbit", traced_axis_orbit)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer figures; every name is present, zero when unseen."""
        s = self.self_time.get
        c = self.counts.get
        ball_words = c("enumeration.ball_words", 0)
        classify_calls = self.calls.get("isometry.classify", 0)
        out = {}
        for name in (
            "enumeration.enumerate_ball", "enumeration.spectrum",
            "enumeration.shortest_screw", "enumeration.fuchsian_test",
            "enumeration.thrice_punctured_test", "isometry.classify",
            "isometry.complex_length", "geometry.geodesic_separation",
            "certification.simplicity_check", "halfturn.invariant_plane",
            "pipeline.classify_manifold", "pipeline.emit_report",
            "pipeline.load_group_file",
        ):
            out[name + ".self_s"] = (s(name, 0.0), "s")
        for name in (
            "enumeration.ball_words", "enumeration.ball_merges",
            "enumeration.store_probes", "enumeration.spectrum.candidates",
            "enumeration.spectrum.kept", "enumeration.spectrum.orbit_products",
            "pipeline.spectrum_unused", "certification.translates_scanned",
            "isometry.psl_distance.calls", "geometry.transform_line.calls",
            "geometry.preserves_circle.calls",
        ):
            out[name] = (c(name, 0), "count")
        out["enumeration.fuchsian_test.calls"] = (
            self.calls.get("enumeration.fuchsian_test", 0), "count")
        out["isometry.classify.calls"] = (classify_calls, "count")
        out["isometry.classify.per_ball_word"] = (
            classify_calls / ball_words if ball_words else 0.0, "calls/word")
        return out

    def save(self, path):
        """Write the spans and counters as one compressed numpy archive."""
        import json

        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            counters=np.array(json.dumps(
                {"counts": self.counts, "calls": self.calls,
                 "self_time": self.self_time}, sort_keys=True)),
        )
