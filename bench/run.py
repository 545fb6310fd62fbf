"""Benchmark of cylq: proof, exact-replay and series workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload m11-solve --seed 1 --seconds 20 --trace 0

The runner imports cylq from `src/` of that checkout and repeats passes over
the workload's fixed inputs, in an order drawn from the seed, until the
summed pass time is nearest to `--seconds` (at least one pass).  Each pass
runs on a fresh import of cylq, so it starts with empty caches, as a `cylq`
command does.  Set-up (import plus `claim_table`) is timed in fresh
interpreters, spread over the run.  Every output of every pass is checked.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A traced run first
repeats the untraced passes, then the traced ones, and reports the
difference as `trace.overhead_frac`.  Lines before the last one give the
machine context and every metric in readable form; the same, plus the spans
of the first traced pass, go to `bench/out/`.

See bench/README.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "golden"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostprobe import HostProbe  # noqa: E402
from layers import Tracer, layer_hooks  # noqa: E402

CAP = 6                # index cap of every proof, as in `cylq prove`
MAX_INDEX = 6          # largest certificate index entry accepted
SERIES_ORDER = 30
SERIES_ZCAP = 6
SETUP_SAMPLES = 15     # set-ups timed in an untraced run
MODULES = ("pipeline", "prover", "relations", "ssums", "qseries", "exactalg")

# the exact-path profiles of modulus 11: proved by `eliminate` alone
EXACT_PROFILES = ((7, 1, 0), (6, 2, 0), (6, 1, 1), (5, 2, 1))

WORKLOADS = {
    "m11-witness": {"moduli": (11,), "prove": ((4, 2, 2),)},
    "m11-solve": {"moduli": (11,), "prove": ((5, 1, 2),)},
    "m11-exact": {"moduli": (11,), "prove": EXACT_PROFILES,
                  "translate": True, "replay": True},
    "series": {"moduli": (11, 13), "suites": ("mod11", "mod13"),
               "evals": (11, 13)},
}

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics as (name, unit); layer_metrics computes the values
PER_LAYER = (
    ("prover.witness.s", "s"), ("prover.witness.calls", "count"),
    ("prover.witness.rows_built", "count"),
    ("prover.witness.support", "count"),
    ("prover.witness.useful_frac", "ratio"),
    ("prover.solve.s", "s"), ("prover.solve.calls", "count"),
    ("prover.solve.rejected", "count"),
    ("prover.calibrate.s", "s"),
    ("prover.reconstruct.s", "s"), ("prover.reconstruct.rungs", "count"),
    ("prover.echelon.s", "s"), ("prover.echelon.eliminations", "count"),
    ("prover.echelon.pivots", "count"), ("prover.echelon.redundant", "count"),
    ("prover.echelon.swell_aborts", "count"),
    ("prover.replay.s", "s"), ("prover.replay.calls", "count"),
    ("prover.replay.entries", "count"),
    ("relations.instantiate.s", "s"), ("relations.instantiate.calls", "count"),
    ("relations.touching.s", "s"), ("relations.touching.calls", "count"),
    ("ssums.eval_terms.s", "s"), ("ssums.eval_terms.calls", "count"),
    ("pipeline.family_sum.s", "s"), ("pipeline.family_sum.calls", "count"),
    ("qseries.theta.s", "s"), ("exactalg.series_invert.s", "s"),
    ("pipeline.translate.s", "s"), ("pipeline.claim_table.s", "s"),
    ("pipeline.certs_changed", "count"), ("pipeline.cert_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


class BenchError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_cylq(moduli):
    """Import a fresh copy of cylq and build its claim tables; returns the
    modules by short name.  Dropping the cached modules first starts
    cylq's module-level caches empty."""
    for name in [n for n in sys.modules
                 if n == "cylq" or n.startswith("cylq.")]:
        del sys.modules[name]
    pipeline = importlib.import_module("cylq.pipeline")
    for m in moduli:
        pipeline.claim_table(m)
    mods = {n: sys.modules["cylq." + n] for n in MODULES}
    if not Path(mods["pipeline"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"cylq was imported from {mods['pipeline'].__file__}, "
                         f"not from {SRC}")
    return mods


# one set-up as a `cylq` command pays it, timed inside a fresh interpreter
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import cylq.pipeline
t1 = time.perf_counter()
for m in sys.argv[2:]:
    cylq.pipeline.claim_table(int(m))
t2 = time.perf_counter()
print(t2 - t0, t2 - t1)
"""


def setup_sample(moduli):
    """Time one set-up: importing cylq.pipeline and building the claim
    tables in a fresh interpreter, whose start-up is not timed.  Returns
    (set-up seconds, claim-table seconds)."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, moduli)],
        capture_output=True, text=True, check=True, timeout=120)
    setup_s, table_s = map(float, proc.stdout.split())
    return setup_s, table_s


def load_golden():
    """Status and certificate text per modulus-11 profile."""
    report = json.loads((GOLDEN / "m11_report.json").read_text())
    status, certs = {}, {}
    for row in report["profiles"]:
        c = tuple(row["profile"])
        status[c] = row["status"]
        if row["certificate_file"]:
            certs[c] = (GOLDEN / row["certificate_file"]).read_text()
    return status, certs


class Context:
    """One import of cylq plus the workload inputs built from it."""

    def __init__(self, spec, mods, golden):
        self.spec = spec
        self.P, self.V, self.Q = (mods["pipeline"], mods["prover"],
                                  mods["qseries"])
        self.status, self.certs = golden
        self.targets = [t for s in spec.get("suites", ())
                        for t in self.P.suite(s)]
        self.claims = [(m, c) for m in spec.get("evals", ())
                       for c in self.P.claim_table(m).profiles()]


def pass_inputs(ctx, rng):
    """The workload's inputs for one pass, each list shuffled by the seed."""
    spec = ctx.spec
    lists = {
        "translate": sorted(ctx.status) if spec.get("translate") else [],
        "prove": list(spec.get("prove", ())),
        "replay": sorted(ctx.certs) if spec.get("replay") else [],
        "targets": list(ctx.targets),
        "claims": list(ctx.claims),
    }
    for items in lists.values():
        rng.shuffle(items)
    return lists


# ---------------------------------------------------------------------------
# one pass and its checks
# ---------------------------------------------------------------------------

def run_pass(ctx, inp):
    """The timed work: returns (kind, key, output) records to check."""
    P, V = ctx.P, ctx.V
    out = []
    hs = {}
    if inp["translate"]:
        table = P.claim_table(11)
        for c in inp["translate"]:
            hs[c] = P.translate(c, table)
            out.append(("translate", c, hs[c]))
    for c in inp["prove"]:
        out.append(("proof", c, P.prove_profile(11, CAP, c)))
    for c in inp["replay"]:
        cert = V.parse_certificate(ctx.certs[c])
        out.append(("replay", c, V.verify_certificate(cert, hs[c])))
    for t in inp["targets"]:
        out.append(("sum_product", t.ident, P.verify_sum_product(t)))
    for m, c in inp["claims"]:
        s = P.eval_sexpr(P.claim_table(m)[c], SERIES_ORDER, zcap=SERIES_ZCAP)
        out.append(("series", (m, c), s))
    return out


def check_pass(ctx, records):
    """Check every output; returns counters and failure messages.

    A proof fails when its status differs from the golden report, its
    certificate does not replay, or an index entry exceeds MAX_INDEX.  A
    translation fails when it is zero for a profile the golden report does
    not call trivial, or the reverse.  A golden replay or sum-product check
    fails when it returns False.  A claim series fails when its q^0 slice
    is not 1 or its z^0 slice is not 1/(q;q)_oo."""
    P, V = ctx.P, ctx.V
    n = dict.fromkeys(("attempted", "failed", "rows_built", "pivots",
                       "redundant", "swell_aborts", "cert_bytes",
                       "certs_changed"), 0)
    errors = []
    ref0 = {a: v for (a, b), v in ctx.Q.inv_euler(SERIES_ORDER).terms.items()
            if b == 0}
    for kind, key, res in records:
        n["attempted"] += 1
        if kind == "proof":
            ok = res["status"] == ctx.status[key]
            if res["status"] == "proved":
                text = res["cert_text"]
                h = P.translate(key, P.claim_table(11))
                ok = (ok and V.verify_certificate(V.parse_certificate(text), h)
                      and res["max_index_magnitude"] <= MAX_INDEX)
                n["cert_bytes"] += len(text.encode())
                n["certs_changed"] += text != ctx.certs.get(key)
            st = res["stats"]
            n["rows_built"] += st.get("scalar_rows", 0)
            n["pivots"] += st.get("pivots", 0)
            n["redundant"] += st.get("redundant", 0)
            n["swell_aborts"] += bool(st.get("swell_abort"))
        elif kind == "translate":
            ok = res.is_zero() == (ctx.status[key] == "trivial")
        elif kind in ("replay", "sum_product"):
            ok = res is True
        else:
            z0 = {a: v for (a, b), v in res.terms.items() if b == 0}
            ok = res.q_slice(0) == {0: 1} and z0 == ref0
        if not ok:
            n["failed"] += 1
            errors.append(f"{kind} {key}: failed")
    return n, errors


def measure(spec, golden, rng, seconds, tracer=None):
    """Passes until their summed time is nearest to `seconds` (at least
    one).  Each pass runs on a fresh import of cylq, made and collected
    before the timer starts, so every pass starts from the same empty
    caches.  With a tracer, its hooks are installed on that import for the
    pass only.  The outputs of each pass are checked after it.

    An untraced run also times SETUP_SAMPLES set-ups, spread over the run
    in proportion to the pass time elapsed: the host's speed changes every
    few seconds, and set-ups timed in one burst would see a single state.

    Returns a dict with the pass wall times, the same in units of the
    host probe's reference chunk, the set-up samples, the summed check
    counters, the failures, the per-pass trace summaries and the spans of
    the first traced pass."""
    walls, norms, setups, checks = [], [], [], {}
    traces, spans, errors = [], None, []
    n_setups = 0 if tracer is not None else SETUP_SAMPLES
    probe = HostProbe()
    while not walls or sum(walls) + statistics.median(walls) / 2 < seconds:
        mods = import_cylq(spec["moduli"])
        ctx = Context(spec, mods, golden)
        inp = pass_inputs(ctx, rng)
        if tracer is not None:
            tracer.reset()
            tracer.install(layer_hooks(mods))
            tracer.active = True
        gc.collect()   # the previous pass's import is garbage by now
        with probe:
            t0 = perf_counter()
            records = run_pass(ctx, inp)
            wall = perf_counter() - t0
        walls.append(wall - probe.spent)
        norms.append(walls[-1] / probe.chunk_s())
        if tracer is not None:
            tracer.active = False
            tracer.restore()
            summary = tracer.summary()
            spans = tracer.spans if spans is None else spans
        n, errs = check_pass(ctx, records)
        del records   # holds objects of this import's classes
        errors.extend(errs)
        if tracer is not None:
            summary["checks"] = n
            traces.append(summary)
        for k, v in n.items():
            checks[k] = checks.get(k, 0) + v
        due = math.ceil(n_setups * min(1.0, sum(walls) / seconds))
        while len(setups) < due:
            setups.append(setup_sample(spec["moduli"]))
    while len(setups) < n_setups:
        setups.append(setup_sample(spec["moduli"]))
    return {"walls": walls, "norms": norms, "setups": setups,
            "checks": checks, "errors": errors, "traces": traces,
            "spans": spans}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(walls):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(walls)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(walls)[i]


def layer_counts(tr) -> dict:
    """The count-valued per-layer metrics of one traced pass; these must
    repeat exactly on a fixed commit."""
    calls, counts, n = tr["calls"], tr["counts"], tr["checks"]
    return {
        "prover.witness.calls": calls.get("prover.witness", 0),
        "prover.witness.rows_built": n["rows_built"],
        "prover.witness.support": counts.get("prover.witness.support", 0),
        "prover.solve.calls": calls.get("prover.solve", 0),
        "prover.solve.rejected": counts.get("prover.solve.rejected", 0),
        "prover.reconstruct.rungs": calls.get("prover.reconstruct", 0),
        "prover.echelon.eliminations":
            counts.get("prover.echelon.eliminations", 0),
        "prover.echelon.pivots": n["pivots"],
        "prover.echelon.redundant": n["redundant"],
        "prover.echelon.swell_aborts": n["swell_aborts"],
        "prover.replay.calls": calls.get("prover.replay", 0),
        "prover.replay.entries": counts.get("prover.replay.entries", 0),
        "relations.instantiate.calls": calls.get("relations.instantiate", 0),
        "relations.touching.calls": calls.get("relations.touching", 0),
        "ssums.eval_terms.calls": calls.get("ssums.eval_terms", 0),
        "pipeline.family_sum.calls": calls.get("pipeline.family_sum", 0),
        "pipeline.certs_changed": n["certs_changed"],
        "pipeline.cert_bytes": n["cert_bytes"],
    }


def layer_metrics(traces, claim_table_s, overhead) -> dict:
    """Per-layer values: counts of the first traced pass (all traced
    passes agree, or the run fails), self times averaged over the traced
    passes."""
    vals = layer_counts(traces[0])
    rows = vals["prover.witness.rows_built"]
    vals["prover.witness.useful_frac"] = (
        vals["prover.witness.support"] / rows if rows else 0.0)
    for span in ("prover.witness", "prover.solve", "prover.calibrate",
                 "prover.reconstruct", "prover.echelon", "prover.replay",
                 "relations.instantiate", "relations.touching",
                 "ssums.eval_terms", "pipeline.family_sum", "qseries.theta",
                 "exactalg.series_invert", "pipeline.translate"):
        vals[span + ".s"] = sum(tr["self_s"].get(span, 0.0)
                                for tr in traces) / len(traces)
    vals["pipeline.claim_table.s"] = claim_table_s
    vals["trace.overhead_frac"] = overhead
    return vals


# ---------------------------------------------------------------------------
# machine context
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_context():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cylq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cylq" / "__init__.py").is_file():
        raise BenchError(f"no cylq sources under {SRC}")
    if not (GOLDEN / "m11_report.json").is_file():
        raise BenchError(f"no golden report under {GOLDEN}")
    sys.path.insert(0, str(SRC))
    spec = WORKLOADS[args.workload]
    golden = load_golden()
    context = machine_context()

    rng = random.Random(args.seed)
    plain = measure(spec, golden, rng, args.seconds)
    setups = plain["setups"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls, checks, errors = plain["walls"], plain["checks"], plain["errors"]

    traced = None
    if args.trace:
        traced = measure(spec, golden, rng, args.seconds, Tracer())
        errors.extend(traced["errors"])
        for k, v in traced["checks"].items():
            checks[k] += v
        first = layer_counts(traced["traces"][0])
        for i, tr in enumerate(traced["traces"][1:], 2):
            if layer_counts(tr) != first:
                checks["failed"] += 1
                errors.append(f"traced pass {i}: layer counts differ "
                              "from traced pass 1")

    wall = statistics.median(walls)
    wall_ref = statistics.median(plain["norms"])
    setup = statistics.median(s for s, _ in setups)
    e2e = {"wall_ref": wall_ref, "setup_s": setup,
           "peak_rss_mb": peak_rss_mb}
    correct = checks["failed"] == 0
    result = {"correct": correct, "attempted": checks["attempted"],
              "failed": checks["failed"]}
    if args.trace:
        overhead = statistics.median(traced["norms"]) / wall_ref - 1.0
        table = statistics.median(t for _, t in setups)
        layers = layer_metrics(traced["traces"], table, overhead)
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in PER_LAYER}
    else:
        result["metrics"] = {name: {"value": e2e[name], "unit": unit}
                             for name, unit in END_TO_END}

    t = tail(walls)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    print(f"  wall_s        {wall:.4f} s   median of {len(walls)} passes")
    print(f"  wall_ref      {wall_ref:.1f} ref   median pass / reference "
          f"chunk ({wall / wall_ref * 1e6:.1f} us at the median)")
    print("  wall_tail_s   " + (f"{t[1]:.4f} s   p{t[0]:.0f}" if t else
                                "n/a           fewer than 11 passes"))
    print(f"  setup_s       {setup:.4f} s   median of "
          f"{len(setups)} set-ups")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    print(f"  failed_frac   {checks['failed'] / checks['attempted']:.4f}   "
          f"{checks['failed']} of {checks['attempted']} operations")
    if args.workload.startswith("m11-"):
        passes = len(walls) + (len(traced["walls"]) if traced else 0)
        print(f"  cert_bytes    {checks['cert_bytes'] // passes} B per pass")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {layers[name]:.6g} {unit}")
    for err in errors[:20]:
        print("  FAIL " + err)
    print("verdict " + ("correct" if correct else "INCORRECT"))

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": context, "result": result,
              "end_to_end": dict(e2e, wall_s=wall),
              "untraced": {k: plain[k] for k in ("walls", "norms", "setups")},
              "traced": traced, "errors": errors}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
