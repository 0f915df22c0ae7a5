"""Run one chromsym CLI call with its library functions traced.

    python3 shim.py SPANS_OUT -- <chromsym arguments>

The shim imports chromsym, replaces every public function of the library
modules wherever a module binds it, runs ``chromsym.cli.main`` and writes
the spans as JSON to SPANS_OUT.  It exits with main's code.  The CLI
module itself is not wrapped: its time is the self time of ``cli.main``.

Most functions become spans.  Hot helpers (``LEAVES``) and generator
functions would make millions of spans, so they keep a call count, an
item count for generators, and accumulated time, which is charged to the
innermost open span as its leaf time.  A wrapped function called from
inside a leaf runs unwrapped and uncounted: its time belongs to the leaf.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LIBRARY_MODULES = ("graphs", "chromatic", "symfunc", "tableaux", "partitions", "posets")

LEAVES = frozenset(
    {
        "graphs.ascents",
        "graphs.descents",
        "graphs.is_proper_coloring",
        "graphs.sinks",
        "chromatic.dual_linear_extensions",
        "chromatic.sink_minimal_increasing_labeling",
        "partitions.check_composition",
        "partitions.check_partition",
        "partitions.composition_from_descents",
        "partitions.compositions_of",
        "partitions.conjugate",
        "partitions.descents_from_composition",
        "partitions.dominance_leq",
        "partitions.hook_partition",
        "partitions.multiplicities",
        "partitions.partition_of",
        "partitions.partitions_of",
        "symfunc.hook_coefficient_of_F",
        "tableaux.check_permutation",
        "tableaux.descent_set",
        "tableaux.ides",
        "tableaux.inverse_permutation",
        "tableaux.kostka",
        "tableaux.reading_word",
    }
)
TPOLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")

# Bindings named explicitly because a copy made by ``from x import f`` is
# easy to miss; install() checks these after its general scan.
REQUIRED_BINDINGS = (
    "chromsym.cli.csf_schur",
    "chromsym.posets.csf_schur",
    "chromsym.symfunc.kostka",
    "chromsym.chromatic.acyclic_orientations",
)


def _sum_at_one(result) -> int:
    return sum(poly.subs(1) for poly in result.coeffs.values())


# Work done by one call, read from its arguments and result.
ITEMS = {
    "graphs.stable_partitions_by_type": lambda args, result: sum(result.values()),
    "graphs.acyclic_orientations": lambda args, result: len(result),
    "chromatic.cqf_monomial": lambda args, result: _sum_at_one(result),
    "chromatic.cqf_fundamental_via_orientations": lambda args, result: _sum_at_one(result),
}


class Tracer:
    """Spans and leaf counters of one process."""

    def __init__(self):
        self.now = time.perf_counter
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, leaf_s]
        self.stack: list[int] = []
        self.in_leaf = False
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds, items]
        self.items: dict[str, int] = {}
        # Acyclic orientations behind each sink histogram, per graph.
        self.sink_orientations: dict = {}
        self.originals: dict[int, tuple[str, object]] = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> list:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self.stack[-1] if self.stack else -1
        record = [nid, self.now(), 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = self.now()
        self.stack.pop()

    def span(self, name: str, fn):
        tracer = self
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if items is not None:
                tracer.items[name] = tracer.items.get(name, 0) + items(args, result)
            return result

        return wrapper

    # -- leaves -------------------------------------------------------------

    def _charge(self, stats: list, seconds: float) -> None:
        stats[1] += seconds
        self.spans[self.stack[-1]][4] += seconds

    def leaf(self, name: str, fn):
        tracer = self
        stats = self.leaves.setdefault(name, [0, 0.0, 0])
        now = self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            tracer.in_leaf = True
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.in_leaf = False
                stats[0] += 1
                tracer._charge(stats, now() - start)

        return wrapper

    def generator(self, name: str, fn):
        tracer = self
        stats = self.leaves.setdefault(name, [0, 0.0, 0])
        now = self.now

        def drive(gen):
            while True:
                tracer.in_leaf = True
                start = now()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.in_leaf = False
                    tracer._charge(stats, now() - start)
                stats[2] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            stats[0] += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def sink_counter(self, fn, orientations):
        """Remember how many orientations each sink-histogram call covered."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(graph, *args, **kwargs):
            result = fn(graph, *args, **kwargs)
            count = orientations(result, *args, **kwargs)
            if count is not None:
                tracer.sink_orientations.setdefault(graph.key(), count)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding; raise if one is missed."""
        import chromsym  # noqa: F401  (loads every module)
        from chromsym.tpoly import TPoly

        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("chromsym")]
        wrappers: dict[int, object] = {}
        for short in LIBRARY_MODULES:
            module = sys.modules[f"chromsym.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in LEAVES:
                    wrapped = self.leaf(name, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapped = self.generator(name, fn)
                else:
                    wrapped = self.span(name, fn)
                wrappers[id(fn)] = wrapped
                self.originals[id(fn)] = (name, fn)
        chromatic = sys.modules["chromsym.chromatic"]
        for attr, orientations in (
            ("sink_profile", lambda result: result.total),
            # The k=1 hook coefficient is the number of acyclic orientations.
            ("hook_coefficient_via_sinks", lambda result, k: result if k == 1 else None),
        ):
            fn = getattr(chromatic, attr)
            wrappers[id(fn)] = self.sink_counter(wrappers[id(fn)], orientations)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and self.originals[id(value)][1] is value:
                    setattr(module, attr, wrappers[id(value)])
        for op in TPOLY_OPS:
            fn = TPoly.__dict__[op]
            self.originals.setdefault(id(fn), ("tpoly.TPoly", fn))
            setattr(TPoly, op, self.leaf("tpoly.TPoly", fn))
        missed = self.unwrapped(modules)
        for binding in REQUIRED_BINDINGS:
            module_name, attr = binding.rsplit(".", 1)
            if id(getattr(sys.modules[module_name], attr)) in self.originals:
                missed.append(binding)
        if missed:
            raise RuntimeError("tracing left functions unwrapped: " + ", ".join(sorted(set(missed))))

    def unwrapped(self, modules) -> list[str]:
        """Every place in chromsym that still refers to an original function."""
        missed = []

        def visit(where: str, value) -> None:
            entry = self.originals.get(id(value))
            if entry is not None and entry[1] is value:
                missed.append(f"{where} ({entry[0]})")

        for module in modules:
            for attr, value in vars(module).items():
                where = f"{module.__name__}.{attr}"
                visit(where, value)
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for key, member in vars(value).items():
                        visit(f"{where}.{key}", member)
                elif isinstance(value, dict):
                    for key, member in value.items():
                        visit(f"{where}[{key!r}]", member)
                elif isinstance(value, (list, tuple, set, frozenset)):
                    for member in value:
                        visit(f"{where}[]", member)
                elif isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    for member in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values()):
                        visit(f"{where} default", member)
        return missed

    # -- output ---------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "leaves": self.leaves,
            "items": self.items,
            "sink_orientations": sum(self.sink_orientations.values()),
        }


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: shim.py SPANS_OUT -- <chromsym arguments>")
    argv = sys.argv[3:]
    tracer = Tracer()
    root = tracer.open("call")
    imported = tracer.open("cli.import")
    import chromsym.cli

    tracer.close(imported)
    tracer.install()
    main_span = tracer.open("cli.main")
    try:
        code = chromsym.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.close(main_span)
        tracer.close(root)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
