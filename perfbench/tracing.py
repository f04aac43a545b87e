"""Timing spans around the public functions of setgraphs, installed from outside.

`Tracer.install()` replaces every module attribute of the traced layers that
binds a setgraphs function with a wrapper that records a span, and wraps the
`check` of each claim in the verify registry. A function re-imported under
another module (say `core.materialize` as `verify.materialize`, or
`mela.mela` as `cli.mela_sequence`) gets the same wrapper everywhere, and its
span keeps the name of the module that defines it. The library source is not
touched.

Per span name the tracer keeps the call count, the self time (span time
minus the time of the spans it encloses, from a stack of open spans) and the
rise of the process's peak resident set during the span. The stack assumes
one thread, which is how the benchmark runs every operation.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import resource
from time import perf_counter

LAYERS = ("core", "invariants", "holes", "parameters", "oracle", "mela", "verify", "cli")

# Helpers called once per vertex, per edge or per cardinality class: their
# wrapper would cost more than the work it times, so their time stays in the
# span that called them.
UNTRACED = frozenset({
    "core.adjacent",
    "core.canonical_index",
    "core.check_ground_size",
    "core.check_mask",
    "core.class_offset",
    "core.elements_of_mask",
    "core.full_mask",
    "core.is_valid_mask",
    "core.label_of_mask",
    "core.mask_of_elements",
    "core.mask_of_label",
    "core.subset_str",
    "holes.h_complete",
    "invariants.characteristic",
    "invariants.degree_brute",
    "invariants.degree_closed",
    "invariants.degree_inclusion_exclusion",
    "invariants.tightness",
    "mela.is_mela",
})

PACKAGE = "setgraphs"


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _is_library_function(obj) -> bool:
    """True for setgraphs functions, lru_cache-wrapped ones included; False for classes."""
    return (
        callable(obj)
        and not isinstance(obj, type)
        and (getattr(obj, "__module__", None) or "").startswith(PACKAGE + ".")
    )


class Tracer:
    """Span statistics for one process; create one, then call `install()`."""

    def __init__(self) -> None:
        # name -> [calls, self seconds, peak-RSS rise in KiB]
        self._stats: dict[str, list] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._canonical_masks = None
        self._masks_info0 = None

    def wrap(self, name: str, fn):
        stats = self._stats.setdefault(name, [0, 0.0, 0])
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            rss0 = _peak_rss_kib()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner
                stats[2] += _peak_rss_kib() - rss0

        return span

    def install(self) -> None:
        """Wrap the traced layers of the already importable setgraphs package."""
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self._canonical_masks = importlib.import_module(f"{PACKAGE}.core").canonical_masks
        self._masks_info0 = self._canonical_masks.cache_info()
        wrappers: dict[int, object] = {}
        for module in modules:
            for obj in vars(module).values():
                if id(obj) in wrappers or not _is_library_function(obj):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                name = f"{layer}.{obj.__name__}"
                if layer in LAYERS and not obj.__name__.startswith("_") and name not in UNTRACED:
                    wrappers[id(obj)] = self.wrap(name, obj)
        for namespace in (package, *modules):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    setattr(namespace, attr, wrappers[id(obj)])

        verify = importlib.import_module(f"{PACKAGE}.verify")
        registry = tuple(
            dataclasses.replace(claim, check=self.wrap(f"verify.{claim.claim_id}", claim.check))
            for claim in verify.REGISTRY
        )
        verify.REGISTRY = registry
        package.REGISTRY = registry
        for claim in registry:
            verify.CLAIMS_BY_ID[claim.claim_id] = claim

    def canonical_masks_hit_ratio(self) -> float:
        """Cache hits over calls of `core.canonical_masks` since `install()`."""
        info = self._canonical_masks.cache_info()
        hits = info.hits - self._masks_info0.hits
        calls = hits + info.misses - self._masks_info0.misses
        return hits / calls if calls else 0.0

    def spans(self) -> dict:
        """{span name: {"calls", "self_s", "rss_growth_mib"}} for spans that ran."""
        return {
            name: {"calls": calls, "self_s": self_s, "rss_growth_mib": rss_kib / 1024}
            for name, (calls, self_s, rss_kib) in self._stats.items()
            if calls
        }
