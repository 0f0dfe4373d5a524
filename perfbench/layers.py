"""The femforge layers, what the tracer wraps in each, and the per-layer metrics.

A layer is a module of ``src/femforge``.  Every public module-level function
of a layer is wrapped as a span of that layer, in every ``femforge.*``
namespace that holds the same object (``elements``, ``spaces`` and
``conformity`` import ``pair_simplex`` and ``apply_dof`` by name).  The class
methods below are wrapped on their class.  ``Polynomial`` and ``Fraction``
arithmetic is not wrapped, so it counts toward the caller's layer.
"""

from __future__ import annotations

import importlib
import sys

LAYERS = ("exact", "poly", "simplex", "integrate", "spaces", "elements", "conformity", "cli")

# Shape and index tables of the polynomial representation.  Like the
# Polynomial methods they count toward the caller's layer; as spans they
# would sit in the innermost loop of every pairing.
UNWRAPPED = {"poly": frozenset({"sym_pairs", "skw_pairs", "ncomp", "frobenius_weight",
                                "entry_comp", "monomials", "frame"})}

METHODS = {
    "exact": ("Matrix", ("rank", "rref", "null_space", "solve", "matmul")),
    "simplex": ("Face", ("restrict",)),
}

# (layer, attribute path) -> timer name.  "exact.rref" is reported by no
# metric; its timer carries the hook that counts the entries eliminated.
TIMERS = {
    ("exact", "Matrix.rank"): "exact.rank",
    ("exact", "Matrix.null_space"): "exact.kernel",
    ("exact", "Matrix.solve"): "exact.solve",
    ("exact", "Matrix.matmul"): "exact.matmul",
    ("exact", "Matrix.rref"): "exact.rref",
    ("simplex", "Face.restrict"): "simplex.restrict",
    ("spaces", "bubble_enrichment_sym"): "spaces.enrich",
    ("elements", "apply_dof"): "elements.apply_dof",
    ("elements", "build_element"): "elements.build",
    ("elements", "check_unisolvence"): "elements.unisolvence",
    ("elements", "trace_block_rank"): "elements.trace_block",
    ("conformity", "conformity_check"): "conformity.patch",
    ("conformity", "green_identity_check"): "conformity.green",
    ("cli", "main"): "cli.main",
}

# name -> unit; the order is the order of the printed table.
PER_LAYER = {
    "exact.rank_s": "s",
    "exact.kernel_s": "s",
    "exact.solve_s": "s",
    "exact.matmul_s": "s",
    "exact.calls": "count",
    "exact.self_s": "s",
    "exact.max_bits": "bits",
    "exact.entries": "count",
    "poly.calls": "count",
    "poly.self_s": "s",
    "simplex.restrict_calls": "count",
    "simplex.self_s": "s",
    "integrate.calls": "count",
    "integrate.self_s": "s",
    "integrate.mono_cache_entries": "count",
    "spaces.calls": "count",
    "spaces.self_s": "s",
    "spaces.enrich_s": "s",
    "spaces.cache_lookups": "count",
    "spaces.cache_hit_ratio": "ratio",
    "elements.apply_dof_calls": "count",
    "elements.self_s": "s",
    "elements.build_s": "s",
    "elements.unisolvence_s": "s",
    "elements.trace_block_s": "s",
    "elements.dofs": "count",
    "elements.dof_max_bits": "bits",
    "conformity.patch_s": "s",
    "conformity.self_s": "s",
    "conformity.green_s": "s",
    "cli.cells": "count",
    "cli.busy_s": "s",
    "cli.cell_max_s": "s",
    "cli.other_s": "s",
    "cli.parallel_efficiency": "ratio",
    "trace_overhead": "ratio",
}


def entry_bits(values) -> int:
    """Largest bit length of a numerator or denominator among ``values``."""
    best = 0
    for x in values:
        b = max(x.numerator.bit_length(), x.denominator.bit_length())
        if b > best:
            best = b
    return best


def _modules() -> dict:
    return {layer: importlib.import_module(f"femforge.{layer}") for layer in LAYERS}


def _femforge_namespaces() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "femforge" or name.startswith("femforge.")]


class _SpaceCache(dict):
    """A frame's shape-space cache that counts ``get`` lookups and hits."""

    __slots__ = ("tracer",)

    def get(self, key, default=None):
        self.tracer.count("spaces.cache_lookups")
        if key in self:
            self.tracer.count("spaces.cache_hits")
            return self[key]
        return default


class _MonoIntegrals(dict):
    """A frame's monomial-integral cache that counts the entries stored."""

    __slots__ = ("tracer",)

    def __setitem__(self, key, value):
        if key not in self:
            self.tracer.count("integrate.mono_cache_entries")
        dict.__setitem__(self, key, value)


def install(tracer) -> None:
    """Wrap femforge for ``tracer``; ``tracer.restore()`` undoes all of it.

    Besides the layers, the CLI's grid cells are timed through
    ``cli._run_task``, the one private function wrapped: a cell has no public
    entry point.
    """
    mods = _modules()

    def note_elimination(m, cached_attr):
        # A memoised rank or RREF eliminates nothing.
        if getattr(m, cached_attr, None) is None:
            tracer.count("exact.entries", m.rows * m.cols)
            tracer.maximum("exact.max_bits", entry_bits(x for i in range(m.rows) for x in m.row(i)))

    def note_element(elem):
        tracer.count("elements.dofs", len(elem.dofs))
        m = elem.dof_matrix
        tracer.maximum("elements.dof_max_bits", entry_bits(x for i in range(m.rows) for x in m.row(i)))

    hooks = {
        "exact.rank": {"before": lambda m: note_elimination(m, "_rank")},
        "exact.rref": {"before": lambda m: note_elimination(m, "_rref")},
        "elements.build": {"after": note_element},
    }

    def wrap(layer, path, fn, span=True):
        wrapped = tracer.span(layer, fn) if span else fn
        name = TIMERS.get((layer, path))
        if name is not None:
            wrapped = tracer.timer(name, wrapped, **hooks.get(name, {}))
        return wrapped

    cli = mods["cli"]
    replaced = {id(cli.main): (cli.main, wrap("cli", "main", cli.main, span=False))}  # id -> (original, wrapper)
    tracer.patch(cli, "_run_task", tracer.cell(cli._run_task))
    for layer in LAYERS[:-1]:
        mod = mods[layer]
        skip = UNWRAPPED.get(layer, frozenset())
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or name in skip or isinstance(obj, type)
                    or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                continue
            replaced[id(obj)] = (obj, wrap(layer, name, obj))
    for layer, (cls_name, methods) in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for meth in methods:
            tracer.patch(cls, meth, wrap(layer, f"{cls_name}.{meth}", getattr(cls, meth)))

    frame_cls = mods["simplex"].SimplexFrame
    frame_init = frame_cls.__init__

    def observed_init(self, *args, **kwargs):
        frame_init(self, *args, **kwargs)
        for attr, cache_cls in (("_space_cache", _SpaceCache), ("_mono_integrals", _MonoIntegrals)):
            cache = cache_cls(getattr(self, attr))
            cache.tracer = tracer
            setattr(self, attr, cache)

    observed_init._perfbench_wrapper = True
    tracer.patch(frame_cls, "__init__", observed_init)

    for mod in _femforge_namespaces():
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.patch(mod, name, hit[1])


def leftover_wrappers() -> list[str]:
    """Names in femforge namespaces and classes that still hold a wrapper."""
    left = []
    for mod in _femforge_namespaces():
        owners = [(mod.__name__, vars(mod))]
        owners += [(f"{mod.__name__}.{n}", vars(c)) for n, c in vars(mod).items()
                   if isinstance(c, type) and c.__module__ == mod.__name__]
        for owner, ns in owners:
            for name, obj in list(ns.items()):
                if getattr(obj, "_perfbench_wrapper", False):
                    left.append(f"{owner}.{name}")
    return left


def metrics(tracer, wall_s: float, jobs: int) -> dict[str, float]:
    """Per-layer figures of one traced run (``trace_overhead`` excepted)."""
    lookups = tracer.counts.get("spaces.cache_lookups", 0)
    cells = [hi - lo for lo, hi in tracer.cells]
    busy = float(sum(cells))
    return {
        "exact.rank_s": tracer.timer_s("exact.rank"),
        "exact.kernel_s": tracer.timer_s("exact.kernel"),
        "exact.solve_s": tracer.timer_s("exact.solve"),
        "exact.matmul_s": tracer.timer_s("exact.matmul"),
        "exact.calls": tracer.layer_calls("exact"),
        "exact.self_s": tracer.layer_self_s("exact"),
        "exact.max_bits": tracer.maxima.get("exact.max_bits", 0),
        "exact.entries": tracer.counts.get("exact.entries", 0),
        "poly.calls": tracer.layer_calls("poly"),
        "poly.self_s": tracer.layer_self_s("poly"),
        "simplex.restrict_calls": tracer.timer_calls("simplex.restrict"),
        "simplex.self_s": tracer.layer_self_s("simplex"),
        "integrate.calls": tracer.layer_calls("integrate"),
        "integrate.self_s": tracer.layer_self_s("integrate"),
        "integrate.mono_cache_entries": tracer.counts.get("integrate.mono_cache_entries", 0),
        "spaces.calls": tracer.layer_calls("spaces"),
        "spaces.self_s": tracer.layer_self_s("spaces"),
        "spaces.enrich_s": tracer.timer_s("spaces.enrich"),
        "spaces.cache_lookups": lookups,
        "spaces.cache_hit_ratio": tracer.counts.get("spaces.cache_hits", 0) / lookups if lookups else 0.0,
        "elements.apply_dof_calls": tracer.timer_calls("elements.apply_dof"),
        "elements.self_s": tracer.layer_self_s("elements"),
        "elements.build_s": tracer.timer_s("elements.build"),
        "elements.unisolvence_s": tracer.timer_s("elements.unisolvence"),
        "elements.trace_block_s": tracer.timer_s("elements.trace_block"),
        "elements.dofs": tracer.counts.get("elements.dofs", 0),
        "elements.dof_max_bits": tracer.maxima.get("elements.dof_max_bits", 0),
        "conformity.patch_s": tracer.timer_s("conformity.patch"),
        "conformity.self_s": tracer.layer_self_s("conformity"),
        "conformity.green_s": tracer.timer_s("conformity.green"),
        "cli.cells": len(cells),
        "cli.busy_s": busy,
        "cli.cell_max_s": max(cells, default=0.0),
        "cli.other_s": tracer.timer_s("cli.main") - tracer.cells_covered_s() if cells else 0.0,
        "cli.parallel_efficiency": busy / (jobs * wall_s) if cells else 0.0,
    }
