"""Per-layer span tracer for the benchmark's traced run.

The tracer wraps privsel's layer functions from outside the package: every
module attribute that is bound to a layer function (the defining module's
own name and each name another module imported) is replaced by a timing
wrapper for the duration of `installed()`, and restored afterwards. The
kernels returned by `kernel_from_means` and `SelectionOutput.__post_init__`
are wrapped too. Nothing under src/ changes.

A span's self time is its duration minus the time covered by the spans it
encloses, so the self times of nested layers add up to the outermost span.
A layer whose function no longer exists is reported with zero calls and a
warning naming it, so a rename in the package never crashes the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# (module under privsel, attribute) for every plain-function layer.
FUNCTION_LAYERS = (
    ("cli", "main"),
    ("harness", "run_experiment"),
    ("harness", "emit"),
    ("seeds", "trial_generator"),
    ("betadist", "beta_draws"),
    ("betadist", "beta_cdf"),
    ("betadist", "beta_cdf_quadrature"),
    ("betadist", "tail_lower_bound"),
    ("instance", "sample_dataset"),
    ("instance", "selection_error"),
    ("mechanisms", "run_named_mechanism"),
    ("mechanisms", "exp_mech_probabilities"),
    ("attack", "z_statistic"),
    ("attack", "tracing_score"),
    ("attack", "column_equality_experiment"),
    ("attack", "verify_fingerprinting_identity"),
    ("attack", "verify_beta_fingerprinting"),
    ("verifysuite", "run_verify"),
)
KERNEL_NAMES = ("peeling", "rnm", "svt", "gauss-mean")
VALIDATE_LAYER = "mechanisms.SelectionOutput.validate"

LAYER_NAMES = (
    tuple(f"{module}.{attr}" for module, attr in FUNCTION_LAYERS)
    + tuple(f"mechanisms.kernel.{name}" for name in KERNEL_NAMES)
    + (VALIDATE_LAYER,)
)


def _sample_dataset_bytes(args, kwargs) -> int:
    """Computed from array sizes (cache misses ignored): n*d float64
    uniforms, the n*d comparison mask, its n*d uint8 copy and the packed
    n*d/8 bit matrix."""
    pop, n = args[0], args[1]
    d = pop.means.size
    return n * d * 8 + n * d + n * d + (n + 7) // 8 * d


def _z_statistic_bytes(args, kwargs) -> int:
    """Computed from array sizes (cache misses ignored): the n*d uint8
    unpacked bits and the n*d float64 centred rows fed to the product."""
    x = args[1]
    return x.n * x.d + x.n * x.d * 8


BYTE_COUNTERS = {
    "instance.sample_dataset": _sample_dataset_bytes,
    "attack.z_statistic": _z_statistic_bytes,
}


class Tracer:
    """Accumulates self time, call counts and computed bytes per layer."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bytes = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[float] = []  # child time covered, one slot per open span

    def wrap(self, name: str, fn):
        open_spans = self._open
        self_s, calls, nbytes = self.self_s, self.calls, self.bytes
        count_bytes = BYTE_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
                if count_bytes is not None:
                    nbytes[name] += count_bytes(args, kwargs)

        return traced

    def _warn_missing(self, name: str, where: str) -> None:
        if name not in self.missing:
            self.missing.append(name)
            print(f"perfbench warning: layer {name} not found ({where}); reporting calls = 0",
                  file=sys.stderr)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        patches = []  # (owner, attribute, original)

        def patch(owner, attr, value):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        modules = _privsel_modules()
        try:
            for module_name, attr in FUNCTION_LAYERS:
                name = f"{module_name}.{attr}"
                defining = modules.get(f"privsel.{module_name}")
                original = getattr(defining, attr, None) if defining is not None else None
                if not callable(original):
                    self._warn_missing(name, f"privsel.{module_name}.{attr}")
                    continue
                wrapped = self.wrap(name, original)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patch(module, key, wrapped)
            self._patch_kernels(modules, patch)
            self._patch_validate(modules, patch)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch_kernels(self, modules, patch) -> None:
        mechanisms = modules.get("privsel.mechanisms")
        factory = getattr(mechanisms, "kernel_from_means", None)
        if not callable(factory):
            for kernel in KERNEL_NAMES:
                self._warn_missing(f"mechanisms.kernel.{kernel}",
                                   "privsel.mechanisms.kernel_from_means")
            return

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            kernel_name = args[0] if args else kwargs["name"]
            return self.wrap(f"mechanisms.kernel.{kernel_name}", factory(*args, **kwargs))

        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is factory:
                    patch(module, key, traced_factory)

    def _patch_validate(self, modules, patch) -> None:
        cls = getattr(modules.get("privsel.mechanisms"), "SelectionOutput", None)
        hook = None if cls is None else cls.__dict__.get("__post_init__")
        if hook is None:
            self._warn_missing(VALIDATE_LAYER, "privsel.mechanisms.SelectionOutput.__post_init__")
            return
        patch(cls, "__post_init__", self.wrap(VALIDATE_LAYER, hook))


def _privsel_modules() -> dict:
    """The privsel package and every submodule a layer may live in,
    imported so that lazily imported modules are patched too."""
    modules = {"privsel": importlib.import_module("privsel")}
    for module_name in sorted({module for module, _ in FUNCTION_LAYERS}):
        try:
            modules[f"privsel.{module_name}"] = importlib.import_module(f"privsel.{module_name}")
        except ImportError:
            pass
    for key, module in list(sys.modules.items()):
        if key.startswith("privsel.") and module is not None:
            modules.setdefault(key, module)
    return modules
