"""In-memory span tracer wrapped around stabmor's public functions.

``install`` replaces every public function of every stabmor module, at
every module attribute bound to it (modules import names such as
``lu_factor`` directly), plus a few public methods, with a wrapper that
records one span: name, start, end, parent and self time. Counts taken from
return values are recorded at the same boundaries. Spans stay in memory
until ``write`` dumps them at the end of the run.

Tracing is live only inside ``Tracer.window`` blocks; the benchmark opens
one per traced set-up and per traced round and reports per-round averages.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time
import types

# Methods traced besides the modules' public functions: (module, class, method).
METHODS = [("linalg", "LUFactorization", "solve"),
           ("dynsys", "TransferFunction", "eval")]
# Private functions traced because a per-layer metric needs them.
PRIVATE = [("cli", "_write_report")]

GENERATORS = ("benchgen.gen_msd_chain", "benchgen.gen_nonnormal_stable",
              "benchgen.gen_convection_diffusion", "benchgen.gen_cubic_msd")
JAC = "nonlinear.NonlinearSystem.jac"

# Inclusive time of the outermost calls of the named spans, per round.
TIME_METRICS = {
    "dynsys.sym_spectrum_s": ("dynsys.symmetric_part_spectrum",),
    "dynsys.abscissa_s": ("dynsys.spectral_abscissa",),
    "dynsys.transfer_eval_s": ("dynsys.TransferFunction.eval",),
    "linalg.lu_factor_s": ("linalg.lu_factor",),
    "linalg.lu_solve_s": ("linalg.LUFactorization.solve",),
    "linalg.lanczos_s": ("linalg.dominant_sym_eigs",),
    "linalg.schur_s": ("linalg.real_schur",),
    "projection.basis_s": ("projection.arnoldi_basis", "projection.pod_basis"),
    "projection.galerkin_s": ("projection.galerkin_reduce",),
    "stabilize.rhs_s": ("stabilize.build_stab_factor_F",),
    "stabilize.shifts_s": ("stabilize.penzl_shifts",),
    "stabilize.lradi_s": ("stabilize.solve_lyapunov_lradi",),
    "stabilize.lyap_dense_s": ("stabilize.solve_lyapunov_dense",),
    "stabilize.reduce_s": ("stabilize.stabilized_reduce",),
    "stabilize.cond_check_s": ("stabilize.condition_bound_check",),
    "nonlinear.reduce_s": ("nonlinear.nonlinear_reduce",),
    "nonlinear.jac_s": (JAC,),
    "analysis.h2_s": ("analysis.h2_error",),
    "analysis.dp5_s": ("analysis.integrate_adaptive",),
    "analysis.trapezoid_s": ("analysis.integrate_trapezoidal",),
    "cli.io_s": ("dynsys.save_system", "stabilize.save_stabilizer",
                 "analysis.write_csv", "cli._write_report"),
}
# Number of outermost calls of one span name, per round.
CALL_METRICS = {
    "dynsys.sym_spectrum_calls": "dynsys.symmetric_part_spectrum",
    "dynsys.abscissa_calls": "dynsys.spectral_abscissa",
    "dynsys.transfer_evals": "dynsys.TransferFunction.eval",
    "linalg.lu_count": "linalg.lu_factor",
    "linalg.schur_calls": "linalg.real_schur",
    "projection.galerkin_calls": "projection.galerkin_reduce",
    "stabilize.reduce_calls": "stabilize.stabilized_reduce",
    "nonlinear.jac_evals": JAC,
    "analysis.h2_calls": "analysis.h2_error",
}
# Layers whose self time is reported per round; benchgen runs only in set-up
# and is reported by benchgen.generate_s. "bench" is the benchmark's own code.
LAYERS = ("dynsys", "linalg", "projection", "stabilize", "nonlinear",
          "analysis", "cli", "bench")


def _trajectory_counts(counts, args, result):
    nonlinear = type(args[0]).__name__ in ("NonlinearSystem", "NonlinearROM")
    counts["analysis.trapezoid_steps"] += result.stats["steps"]
    if nonlinear:
        counts["analysis.newton_iters"] += result.stats["stage_count"]


def _adaptive_counts(counts, args, result):
    counts["analysis.dp5_stages"] += result.stats["stage_count"]
    if result.snapshots is not None:
        counts["analysis.snapshot_mb"] += result.snapshots.nbytes / 2 ** 20


# Counters read from return values: span name -> f(counts, args, result).
COUNTERS = {
    "stabilize.solve_lyapunov_lradi":
        lambda c, a, res: c.update({"stabilize.adi_steps": len(res[1]) - 1}),
    "stabilize.assemble_stabilizer":
        lambda c, a, res: c.update({"stabilize.factor_rank": res.q}),
    "analysis.h2_error":
        lambda c, a, res: c.update({"analysis.h2_points": res.points}),
    "analysis.integrate_adaptive": _adaptive_counts,
    "analysis.integrate_trapezoidal": _trajectory_counts,
}
COUNT_METRICS = ("stabilize.adi_steps", "stabilize.factor_rank",
                 "analysis.h2_points", "analysis.dp5_stages",
                 "analysis.snapshot_mb", "analysis.trapezoid_steps",
                 "analysis.newton_iters", "cli.bytes_written")


class Tracer:
    """Span recorder; one per process, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (span id, parent id, name index, start, end, self time, outermost)
        self.spans: list[tuple] = []
        # (label, first span index, end span index, counts)
        self.windows: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.enabled = False
        self._stack: list[list] = []
        self._depth: collections.Counter = collections.Counter()
        self._next_id = 0

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, idx: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        self._depth[idx] += 1
        frame = [self._next_id, parent, idx, time.perf_counter(), 0.0,
                 self._depth[idx] == 1]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, idx, start, child, outer = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self._depth[idx] -= 1
        self.spans.append((sid, parent, idx, start, end, duration - child,
                           outer))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(self._name(name))
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str):
        idx = self._name(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def window(self, label: str):
        """Trace the block as one set-up or round, under a root span."""
        first = len(self.spans)
        self.counts = collections.Counter()
        self.enabled = True
        try:
            with self.span(f"bench.{label}"):
                yield
        finally:
            self.enabled = False
            self.windows.append((label, first, len(self.spans), self.counts))

    def write(self, path, meta: dict) -> None:
        payload = {**meta, "names": self.names,
                   "windows": [[lab, a, b, dict(c)]
                               for lab, a, b, c in self.windows],
                   "span_fields": ["id", "parent", "name", "start_us",
                                   "end_us"],
                   "spans": [[s[0], s[1], s[2], round(s[3] * 1e6),
                              round(s[4] * 1e6)] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap public functions at every binding in ``modules`` (layer: module)."""
    wrappers = {}
    for layer, mod in modules.items():
        names = list(getattr(mod, "__all__", ()))
        names += [n for lay, n in PRIVATE if lay == layer]
        for name in names:
            fn = getattr(mod, name)
            if (isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__):
                wrappers[fn] = tracer.wrap(fn, f"{layer}.{name}")
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, tracer.wrap(getattr(cls, meth),
                                       f"{layer}.{cls_name}.{meth}"))


def metric_names() -> list[str]:
    """Every per-layer metric, in the order the traced run prints them."""
    return (["benchgen.generate_s", *TIME_METRICS, *CALL_METRICS,
             *COUNT_METRICS] + [f"{layer}.self_s" for layer in LAYERS]
            + ["trace.spans", "trace.sweep_s", "trace.overhead_pct",
               "trace.span_cost_pct", "trace.attributed_pct"])


def span_cost_s(calls: int = 20000) -> float:
    """Extra wall time of one traced call over an untraced one."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    traced = tracer.wrap(noop, "bench.noop")
    tracer.enabled = True
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(t1 - t0 - (time.perf_counter() - t1), 0.0) / calls


def layer_metrics(tracer: Tracer, plain_sweep_s: float,
                  traced_sweep_s: float) -> dict:
    """Per-layer metrics as per-window averages over the traced rounds.

    ``plain_sweep_s`` and ``traced_sweep_s`` are the median sweep times of
    the untraced and the traced rounds; their ratio is the measured
    overhead. ``trace.span_cost_pct`` estimates the same overhead from the
    span count and the calibrated cost of one span, which machine noise
    between rounds does not blur. ``trace.attributed_pct`` is the library
    self time as a share of the traced rounds' root spans.
    """
    rounds = [w for w in tracer.windows if w[0] == "round"]
    setups = [w for w in tracer.windows if w[0] == "setup"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans_of(windows):
        for _, first, end, _ in windows:
            yield from tracer.spans[first:end]

    def inclusive(windows, names):
        wanted = {ids[n] for n in names if n in ids}
        total = sum(s[4] - s[3] for s in spans_of(windows)
                    if s[2] in wanted and s[6])
        return total / max(len(windows), 1)

    out = {"benchgen.generate_s": inclusive(setups, GENERATORS)}
    for metric, names in TIME_METRICS.items():
        out[metric] = inclusive(rounds, names)
    calls = collections.Counter(s[2] for s in spans_of(rounds) if s[6])
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(ids.get(name), 0) / len(rounds)
    for metric in COUNT_METRICS:
        out[metric] = sum(w[3][metric] for w in rounds) / len(rounds)
    self_s = collections.Counter()
    for s in spans_of(rounds):
        self_s[tracer.names[s[2]].split(".")[0]] += s[5]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / len(rounds)
    out["trace.spans"] = sum(end - first
                             for _, first, end, _ in rounds) / len(rounds)
    out["trace.sweep_s"] = traced_sweep_s
    out["trace.overhead_pct"] = 100.0 * (traced_sweep_s / plain_sweep_s - 1.0)
    out["trace.span_cost_pct"] = (100.0 * out["trace.spans"] * span_cost_s()
                                  / traced_sweep_s)
    attributed = sum(self_s[layer] for layer in LAYERS if layer != "bench")
    out["trace.attributed_pct"] = 100.0 * attributed / (
        inclusive(rounds, ("bench.round",)) * len(rounds))
    return out
