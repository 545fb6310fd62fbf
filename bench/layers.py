"""Span tracing of cylq's layers from outside the package.

A layer hook replaces a public entry point of one module with a wrapper that
records a span (name, start, end, parent span) and, for a few entry points,
extra counters read off the arguments or the return value.  Nothing under
`src/` changes: the hooks patch module attributes at run time and `restore`
puts the originals back.

Several modules bind a function by name at import (`from .prover import
verify_certificate`), so patching the defining module alone would miss the
calls made through the other binding.  Each hook therefore lists every
binding of its entry point, and `install` checks that all bindings present
refer to the same function before wrapping them.  Hooks are installed only
for the traced passes; the end-to-end figures come from untraced passes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """In-memory spans and counters; wrappers record only while `active`."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _span(self, fn, name, on_return):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self.counts, args, out)
            return out
        return traced

    def _counter(self, fn, name):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, hooks):
        """Wrap every binding of every hook; see layer_hooks for the form."""
        for name, bindings, kind, on_return in hooks:
            present = [(owner, attr) for owner, attr in bindings
                       if attr in vars(owner)]
            if not present:
                raise RuntimeError(f"no binding left for layer hook {name}")
            fn = getattr(*present[0])
            for owner, attr in present[1:]:
                if getattr(owner, attr) is not fn:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                       f"function hooked as {name}")
            wrapper = (self._span(fn, name, on_return) if kind == "span"
                       else self._counter(fn, name))
            for owner, attr in present:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict:
        """Self time and call count per span name, plus the counters.  A
        span's self time is its duration minus that of its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(self.counts)}


def _count_support(counts, args, out):
    counts["prover.witness.support"] += len(out) if out else 0


def _count_rejected(counts, args, out):
    counts["prover.solve.rejected"] += out is None


def _count_entries(counts, args, out):
    counts["prover.replay.entries"] += len(args[0].entries)


def layer_hooks(mods) -> list[tuple]:
    """(span name, bindings, "span" | "count", on_return) for each layer,
    given the freshly imported cylq modules by short name."""
    pipeline, prover, relations = mods["pipeline"], mods["prover"], mods["relations"]
    ssums, qseries, exactalg = mods["ssums"], mods["qseries"], mods["exactalg"]
    return [
        ("prover.witness", [(prover.WitnessSearch, "search")], "span",
         _count_support),
        ("prover.solve", [(prover._SupportSolver, "run")], "span",
         _count_rejected),
        ("prover.calibrate", [(prover, "_calibrate")], "span", None),
        ("prover.reconstruct", [(prover, "_reconstruct")], "span", None),
        # the exact echelon path: reducing the target against the pivots,
        # acquiring new ones, and inserting the rows of a widening pass
        ("prover.echelon", [(prover.Prover, "_reduce_acquiring")], "span",
         None),
        ("prover.echelon", [(prover.Prover, "_insert")], "span", None),
        ("prover.echelon.eliminations", [(prover, "eliminate")], "count",
         None),
        ("prover.replay", [(prover, "verify_certificate"),
                           (pipeline, "verify_certificate")], "span",
         _count_entries),
        ("relations.instantiate", [(relations, "instantiate"),
                                   (prover, "instantiate")], "span", None),
        ("relations.touching", [(relations, "relations_touching"),
                                (prover, "relations_touching")], "span", None),
        ("ssums.eval_terms", [(ssums, "eval_terms"),
                              (pipeline, "eval_terms")], "span", None),
        ("pipeline.family_sum", [(pipeline, "family_sum")], "span", None),
        ("qseries.theta", [(qseries, "theta"), (pipeline, "theta")], "span",
         None),
        ("exactalg.series_invert", [(exactalg.TruncSeries, "invert")], "span",
         None),
        ("pipeline.translate", [(pipeline, "translate")], "span", None),
    ]
