"""Outside-in tracer: spans around the public functions of each layer.

Most epiwave modules import functions by name, so a function is bound in
several module namespaces (principal_eigenpair sits in spectral, steady,
waves.dispersion and waves.profile).  install() finds every binding site
by identity -- module globals and the values of module-level dicts such
as app.pipelines.COMMANDS -- and replaces each with one shared wrapper;
uninstall() puts the originals back.  unwrapped_sites() is the
completeness self-check: after install() no epiwave namespace may still
hold an original.

The parent installs the wrappers before it forks, so a traced child
inherits them.  Each span records (name, start, end, parent); spans stay
in memory and the child writes them out once, after the command returns.
Counters that repeat exactly across runs (iterations, matvec flops,
node-steps, artifact bytes) are read off arguments and return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (defining module, attribute)
FUNCTIONS = {
    "spectral.eigen": ("epiwave.spectral", "principal_eigenpair"),
    "spectral.assemble_ball": ("epiwave.spectral", "assemble_ball"),
    "spectral.ball_sweep": ("epiwave.spectral", "ball_eigenvalue_sweep"),
    "domain.kernels.periodize": ("epiwave.domain.kernels", "periodize_kernel"),
    "domain.kernels.window_matrix": ("epiwave.domain.kernels",
                                     "window_pair_matrix"),
    "domain.kernels.time_integrate": ("epiwave.domain.kernels",
                                      "time_integrate_kernel"),
    "waves.dispersion.minimal_speed": ("epiwave.waves.dispersion",
                                       "minimal_speed"),
    "waves.dispersion.eigenvalue": ("epiwave.waves.dispersion",
                                    "dispersion_eigenvalue"),
    "waves.dispersion.complex_root": ("epiwave.waves.dispersion",
                                      "complex_decay_root"),
    "waves.profile.build_sub_super": ("epiwave.waves.profile",
                                      "build_sub_super"),
    "waves.profile.wave": ("epiwave.waves.profile", "construct_wave"),
    "waves.oscillation": ("epiwave.waves.oscillation",
                          "oscillating_subsolution"),
    "steady": ("epiwave.steady", "solve_steady_state"),
    "dynamics": ("epiwave.dynamics", "solve_initial_value"),
    "sir.simulate": ("epiwave.sir", "simulate_sir"),
    "sir.equivalence": ("epiwave.sir", "equivalence_check"),
    "app.scenario.load": ("epiwave.app.scenario", "load_scenario"),
}
APPLY_SPAN = "waves.profile.apply"      # WaveOperator.apply, on the class
PIPELINE_SPAN = "app.pipelines"         # every entry of COMMANDS
ROOT_SPAN = "app.cli"                   # cli.main, entered by the benchmark

# Layers, longest prefix first when a span name is matched against them.
LAYERS = ("waves.dispersion", "waves.profile", "waves.oscillation",
          "domain.kernels", "app.pipelines", "app.scenario", "app.cli",
          "spectral", "steady", "dynamics", "sir")


def layer_of(span: str) -> str:
    for layer in LAYERS:
        if span == layer or span.startswith(layer + "."):
            return layer
    raise KeyError(span)


def _eigen_counts(counts, args, kwargs, pair):
    op = kwargs.get("op", args[0] if args else None)
    entries = op.entries
    nnz = entries.nnz if hasattr(entries, "nnz") else entries.size
    # one matvec per power iteration, plus the Rayleigh guard when the
    # operator carries a symmetry weight and the iteration ran
    matvecs = pair.iterations + (op.weight is not None and pair.value > 0.0)
    counts["spectral.eigen.iterations"] += pair.iterations
    counts["spectral.matvec_flops"] += 2 * nnz * matvecs


def _count(key, read):
    def hook(counts, args, kwargs, out):
        counts[key] += read(out)
    return hook


_HOOKS = {
    "spectral.eigen": _eigen_counts,
    "steady": _count("steady.iterations", lambda s: s.iterations),
    "waves.profile.wave": _count("waves.profile.wave.iterations",
                                 lambda w: w.iterations),
    "dynamics": _count("dynamics.node_steps",
                       lambda f: (f.values.shape[0] - 1) * f.values.shape[1]),
    "sir.simulate": _count("sir.simulate.steps", lambda s: s.S.shape[0] - 1),
    PIPELINE_SPAN: _count("app.pipelines.artifact_bytes",
                          lambda out: sum(len(text.encode("utf-8"))
                                          for text in out[0].values())),
}

COUNTER_KEYS = ("spectral.eigen.iterations", "spectral.matvec_flops",
                "steady.iterations", "waves.profile.wave.iterations",
                "dynamics.node_steps", "sir.simulate.steps",
                "app.pipelines.artifact_bytes")


def _epiwave_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "epiwave" or name.startswith("epiwave."))]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {key: 0 for key in COUNTER_KEYS}
        self._stack: list = []
        self._sites: list = []       # (namespace, key, original, wrapper)
        self._originals: dict = {}   # id(original) -> (span name, original)
        self._apply = None

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and feed its counter hook."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self.counts, args, kwargs, out)
        return out

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def dump(self, path, call_id):
        names = sorted({span[0] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"call": call_id, "names": names, "counts": self.counts,
                   "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))

    # -- installation ----------------------------------------------------

    def _collect_originals(self):
        originals = {}
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[module], attr)
            originals[id(fn)] = (name, fn)
        for fn in sys.modules["epiwave.app.pipelines"].COMMANDS.values():
            originals[id(fn)] = (PIPELINE_SPAN, fn)
        return originals

    def _find_sites(self, targets):
        """Every (namespace, key) holding one of targets, by identity."""
        sites = []
        for _, mod in _epiwave_modules():
            space = vars(mod)
            for key, value in list(space.items()):
                if id(value) in targets and value is targets[id(value)][1]:
                    sites.append((space, key, value))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in targets and v is targets[id(v)][1]:
                            sites.append((value, k, v))
        return sites

    def binding_sites(self) -> list[tuple[str, str]]:
        """(namespace, key) pairs holding a traced function; namespaces are
        module names, or module.DICT for entries of a module-level dict."""
        targets = self._collect_originals()
        labels = {id(vars(mod)): name for name, mod in _epiwave_modules()}
        for name, mod in _epiwave_modules():
            for key, value in vars(mod).items():
                if isinstance(value, dict):
                    labels[id(value)] = f"{name}.{key}"
        return sorted((labels[id(space)], str(key))
                      for space, key, _ in self._find_sites(targets))

    def install(self):
        if self._sites:
            raise RuntimeError("tracer already installed")
        self._originals = self._collect_originals()
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in self._originals.items()}
        for space, key, fn in self._find_sites(self._originals):
            wrapper = wrappers[id(fn)]
            space[key] = wrapper
            self._sites.append((space, key, fn, wrapper))
        wave_operator = sys.modules["epiwave.waves.profile"].WaveOperator
        self._apply = (wave_operator, wave_operator.apply)
        wave_operator.apply = self._wrap(APPLY_SPAN, wave_operator.apply)

    def uninstall(self):
        for space, key, fn, wrapper in self._sites:
            if space.get(key) is wrapper:
                space[key] = fn
        self._sites = []
        if self._apply is not None:
            cls, fn = self._apply
            cls.apply = fn
            self._apply = None

    def unwrapped_sites(self) -> list[str]:
        """Binding sites that still hold an original after install(); the
        completeness self-check wants this empty."""
        if not self._sites:
            raise RuntimeError("tracer not installed")
        missing = [f"{space.get('__name__', 'dict')}:{key}"
                   for space, key, _ in self._find_sites(self._originals)]
        cls, fn = self._apply
        if cls.apply is fn:
            missing.append("WaveOperator.apply")
        return missing


def aggregate(span_files) -> dict:
    """Per-name self time and call counts, plus counters, over the span
    files of one pass.  Self time is a span's duration minus the time its
    direct child spans cover (spans nest; one thread per child)."""
    self_s: dict = {}
    calls: dict = {}
    counts = {key: 0 for key in COUNTER_KEYS}
    eigen_under_search = 0
    n_spans = 0
    for path in span_files:
        with open(path) as handle:
            data = json.load(handle)
        names = data["names"]
        spans = data["spans"]
        n_spans += len(spans)
        covered = [0.0] * len(spans)
        under_search = [False] * len(spans)
        for i, (n, start, end, parent) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                parent_name = names[spans[parent][0]]
                under_search[i] = (under_search[parent] or parent_name
                                   == "waves.dispersion.minimal_speed")
        for i, (n, start, end, parent) in enumerate(spans):
            name = names[n]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "spectral.eigen" and under_search[i]:
                eigen_under_search += 1
        for key in COUNTER_KEYS:
            counts[key] += data["counts"][key]
    return {"self_s": self_s, "calls": calls, "counts": counts,
            "eigen_under_search": eigen_under_search, "spans": n_spans}


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics of one pass, keyed by the names in BENCHMARK.json."""
    s, c = agg["self_s"], agg["calls"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in s.items():
        layer_self[layer_of(name)] += value
    searches = c.get("waves.dispersion.minimal_speed", 0)
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS
           if layer not in ("app.scenario",)}
    out.update({
        "spectral.eigen.calls": c.get("spectral.eigen", 0),
        "spectral.eigen.self_s": s.get("spectral.eigen", 0.0),
        "spectral.assemble_ball.self_s": s.get("spectral.assemble_ball", 0.0),
        "domain.kernels.periodize.calls": c.get("domain.kernels.periodize", 0),
        "domain.kernels.periodize.self_s": s.get("domain.kernels.periodize",
                                                 0.0),
        "domain.kernels.window_matrix.builds":
            c.get("domain.kernels.window_matrix", 0),
        "domain.kernels.window_matrix.self_s":
            s.get("domain.kernels.window_matrix", 0.0),
        "waves.dispersion.minimal_speed.calls": searches,
        "waves.dispersion.minimal_speed.self_s":
            s.get("waves.dispersion.minimal_speed", 0.0),
        "waves.dispersion.eigen_per_search":
            agg["eigen_under_search"] / searches if searches else 0.0,
        "waves.dispersion.complex_root.self_s":
            s.get("waves.dispersion.complex_root", 0.0),
        "waves.profile.apply.calls": c.get(APPLY_SPAN, 0),
        "waves.profile.apply.self_s": s.get(APPLY_SPAN, 0.0),
        "waves.profile.build_sub_super.self_s":
            s.get("waves.profile.build_sub_super", 0.0),
        "sir.simulate.self_s": s.get("sir.simulate", 0.0),
        "sir.equivalence.self_s": s.get("sir.equivalence", 0.0),
        "app.scenario.load_s": layer_self["app.scenario"],
        "trace.spans": agg["spans"],
    })
    out.update(agg["counts"])
    return out
