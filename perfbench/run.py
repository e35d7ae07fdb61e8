#!/usr/bin/env python3
"""qforge benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload mixed_targets --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is the
separate traced run that gives the per-layer metrics.  Progress goes to
stderr; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one target at a time, no BLAS threads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 7  # fresh interpreters per set-up and start-up measurement
# the reference speed times are scaled to: the in-process kernel's time, and
# a fresh `python -c "import numpy"`'s
REF_KERNEL_S = 0.8e-3
REF_CHILD_S = 0.16

WORKLOADS = ("mixed_targets", "decoherer_chains", "cli_pipeline")
END_TO_END = {
    "setup_s": "s",
    "targets_per_s": "targets/s",
    "target_ms_p50": "ms",
    "target_ms_p99": "ms",
    "peak_rss_mb": "MB",
}
TIMED = (  # <layer>.<function>.us, median microseconds per call
    "qmath.validate_density", "qmath.canonical_decompose", "qmath.fidelity",
    "qmath.tangle", "qmath.linear_entropy", "synth_pure.solve_pure",
    "elements.su2_to_waveplates", "compilers.compile_scheme1", "compilers.compile_scheme2",
    "compilers.compile_scheme3", "compilers.compile_scheme4_bell_diagonal",
    "elements.invert_f", "compilers.simulate_recipe", "spectral.simulate_chain",
    "spectral.analytic_single_stage", "recipe_io.recipe_from_json",
    "recipe_io.recipe_to_json", "matrix_io.parse_matrix", "matrix_io.format_matrix",
)
COUNTED = (  # <layer>.<function>.calls_per_target, exact
    "qmath.validate_density", "synth_pure.solve_pure", "spectral.simulate_chain",
    "spectral.make_grid", "spectral.analytic_single_stage",
)
CLI_COMMANDS = ("families", "compile", "simulate", "verify", "metrics", "cost")


def per_layer_units() -> dict:
    from tracer import LAYERS

    units = {f"{f}.us": "us" for f in TIMED}
    units.update({f"{f}.calls_per_target": "calls/target" for f in COUNTED})
    units["compilers.simulate_recipe.self_us"] = "us"
    units["recipe_io.recipe_bytes"] = "bytes"
    units["cli.import_ms"] = "ms"
    units.update({f"cli.{c}.ms": "ms" for c in CLI_COMMANDS})
    units["python.start_ms"] = "ms"
    units.update({f"{layer}.self_share": "share" for layer in LAYERS})
    units["trace.overhead_pct"] = "%"
    return units


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class RefClock:
    """How fast the machine runs, read from fixed work that is not qforge's.

    The VM the benchmark was built on changes speed by up to 1.6x in spells of
    seconds to minutes, so 30-s runs of the same work spread by ~0.2 of their
    median.  Every timed duration is multiplied by a reference time over the
    reading taken next to it, untimed: the machine's speed cancels, qforge's
    does not.

    In-process targets: the kernel is the benchmark's own reference physics
    on fixed inputs (Uhlmann fidelity, Wootters concurrence and a
    3-decoherer delay sum), small numpy calls and Python like a target's,
    read once before each round.  Scaled so, 30-s runs spread by ~0.03.

    Child processes (CLI pipelines, set-up probes): the kernel does not
    follow them (readings just after a child swing by 2x while the
    children's times do not).  A fresh `python -c "import numpy"`, the same
    start-up, imports and page faults as a CLI command, does: its time and a
    pipeline's correlate at 0.8.  It is read before and after each child.
    """

    def __init__(self, cwd: Path, env: dict):
        import numpy as np
        import reference
        import workloads

        rng = np.random.default_rng(0)
        self.ref = reference
        self.mats = [workloads.random_mixed(rng, r) for r in (4, 3, 2, 1)]
        self.doc = json.loads(workloads.random_chain(rng, 3)["text"])
        self.samples: list[float] = []  # kernel seconds, every reading
        self.child_samples: list[float] = []  # `import numpy` seconds, every reading
        self.cwd, self.env = cwd, env
        for _ in range(20):  # warm-up
            self.kernel()

    def kernel(self) -> None:
        for m in self.mats:
            self.ref.fidelity(m, self.mats[0])
            self.ref.concurrence(m)
        self.ref.recipe_rho(self.doc)

    def scale(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return REF_KERNEL_S / dt

    def child(self) -> float:
        """Wall seconds of a fresh `python -c "import numpy"`."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.cwd, env=self.env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        dt = time.perf_counter() - t0
        self.child_samples.append(dt)
        return dt

    def child_scale(self, before: float, after: float) -> float:
        return REF_CHILD_S / (0.5 * (before + after))


class Segment:
    """Targets run back to back, in whole rounds."""

    def __init__(self):
        self.by_target = defaultdict(list)  # id(target) -> scaled seconds per execution
        self.elapsed = 0.0  # wall seconds
        self.scaled = 0.0  # the same, at the reference speed
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def add(self, t: dict, dt: float, scaled: float) -> None:
        self.by_target[id(t)].append(scaled)
        self.elapsed += dt
        self.scaled += scaled
        self.attempted += 1

    def target_ms(self) -> list[float]:
        """Each distinct target's median scaled time: the pool cycles, so a
        target's executions are spread over the run."""
        return sorted(statistics.median(v) * 1e3 for v in self.by_target.values())


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        import checks
        import qforge.recipe_io
        import workloads

        self.checks, self.rio, self.wl = checks, qforge.recipe_io, workloads
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.env = workloads.cli_env(ROOT)
        self.problems: list[str] = []  # outputs that failed a check
        self.failures: list[str] = []  # targets whose operation raised
        self.cmd_ms = defaultdict(list)
        self.child_rss_kb = 0
        self.memo: dict[int, tuple[dict, dict]] = {}
        self.tracer = None
        self.next_id = 0
        self.clock = RefClock(workdir, self.env)

    # -- one target --------------------------------------------------------

    def target(self, kind: str, t: dict, seg: Segment, traced: bool, scale=lambda: 1.0) -> None:
        """`scale()`, called when the timed part ends, gives the factor to the
        reference speed."""
        tid = self.next_id
        self.next_id += 1
        tr = self.tracer if traced else None
        if kind == "cli":
            self.wl.prepare_pipeline(t, self.workdir / t["kind"])
        sid = tr.open_span(tid) if tr else -1
        if tr:
            tr.active = kind != "cli"
        t0 = time.perf_counter()
        try:
            out = self.run_op(kind, t, traced)
            err = None
        except Exception as exc:  # a failed target is counted, not fatal
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tr:
            tr.active = False
            tr.close_span(sid)
        seg.add(t, dt, dt * scale())
        if err is not None:
            seg.failed += 1
            self.failures.append(f"{kind} {t['kind']}: {type(err).__name__}: {err}")
            return
        try:
            self.check(kind, t, out, sid, tid)
        except self.checks.CheckFailed as exc:
            self.problems.append(f"{kind} {t['kind']}: {exc}")

    def verified(self, t: dict) -> dict:
        """What the first output of `t` was checked to give.  The target is
        held too, so its id is not reused while the run lasts."""
        return self.memo.setdefault(id(t), (t, {}))[1]

    def run_op(self, kind: str, t: dict, traced: bool):
        wl = self.wl
        if kind == "mixed":
            return wl.run_mixed(t)
        if kind == "chain":
            return wl.run_chain(t)
        if kind == "closed":
            return wl.comp.simulate_recipe(wl.compile_family(t), analytic=True)
        launcher = [sys.executable, "-m", "qforge.cli"]
        cwd = self.workdir / t["kind"]
        steps = {}
        for cmd, args in wl.pipeline_steps(t):
            argv = launcher + args
            if traced:
                argv = [sys.executable, str(HERE / "probe.py"), "trace-cli", f"{cmd}.spans", "--"]
                argv += args
            t0 = time.perf_counter_ns()
            steps[cmd] = res = wl.run_process(argv, cwd, self.env, cmd)
            res["t_ns"] = (t0, time.perf_counter_ns())
            if res["exit"] != 0:
                raise RuntimeError(f"{cmd} exited {res['exit']}: {res['stderr'].strip()}")
        return steps

    def check(self, kind: str, t: dict, out, sid: int, tid: int) -> None:
        ck, to_json, from_json = self.checks, self.rio.recipe_to_json, self.rio.recipe_from_json
        if kind == "mixed":
            ck.mixed(t, out, to_json, from_json, self.verified(t))
        elif kind == "chain":
            ck.chain(t, out, to_json, from_json, self.verified(t))
        elif kind == "closed":
            from reference import family_matrix

            ck.close("closed form vs formula", out, family_matrix(t["family"], t["params"]),
                     ck.TOL_CLOSED)
        else:
            cwd = self.workdir / t["kind"]
            files = {n: (cwd / n).read_text() for n in ("target.txt", "recipe.json", "produced.txt")}
            self.verified(t).setdefault("recipe_bytes", []).append(len(files["recipe.json"].encode()))
            for cmd, res in out.items():
                self.child_rss_kb = max(self.child_rss_kb, res["maxrss_kb"])
                spans_file = cwd / f"{cmd}.spans"
                if sid >= 0 and spans_file.exists():
                    psid = self.tracer.add_span(f"process.{cmd}", *res["t_ns"], sid, tid)
                    self.tracer.add_child_spans(json.loads(spans_file.read_text()), psid, tid)
                    spans_file.unlink()
                else:
                    self.cmd_ms[cmd].append(res["wall_s"] * 1e3)
            ck.pipeline(t, out, files)

    # -- rounds ------------------------------------------------------------

    def kind(self) -> str:
        return {"mixed_targets": "mixed", "decoherer_chains": "chain"}.get(self.workload, "cli")

    def run_round(self, targets: list, seg: Segment, traced: bool = False) -> None:
        """In-process targets are scaled by a kernel reading before each round
        (~25 ms), a CLI pipeline (~1.3 s) by child readings before and after
        it."""
        kind = self.kind()
        if kind == "cli":
            readings = [self.clock.child()]

            def scale() -> float:
                readings.append(self.clock.child())
                return self.clock.child_scale(*readings[-2:])
        else:
            factor = self.clock.scale()

            def scale() -> float:
                return factor

        for t in targets:
            self.target(kind, t, seg, traced, scale)
        seg.rounds += 1

    def segment(self, rounds: list, seconds: float, between=None) -> Segment:
        """Whole rounds, cycling the pool, until `seconds` of timed work;
        `between(seg)` runs untimed before each round."""
        seg = Segment()
        while seg.elapsed < seconds:
            if between:
                between(seg)
            self.run_round(rounds[seg.rounds % len(rounds)], seg)
        return seg

    def setup_probe(self, k: int) -> float:
        """Scaled wall time of a fresh interpreter that imports what the
        workload uses and finishes one warm-up target."""
        argv = [sys.executable, str(HERE / "probe.py"), "setup", self.workload,
                str(self.seed), str(self.workdir / f"setup{k}")]
        before = self.clock.child()
        res = self.wl.run_process(argv, self.workdir, self.env, f"setup{k}")
        after = self.clock.child()
        if res["exit"] != 0:
            raise SystemExit(f"set-up probe failed: {res['stderr'].strip()}")
        return res["wall_s"] * self.clock.child_scale(before, after)

    def subprocess_ms(self, argv: list[str], tag: str, inner: bool = False) -> float:
        vals = []
        for k in range(PROBES):
            res = self.wl.run_process(argv, self.workdir, self.env, f"{tag}{k}")
            if res["exit"] != 0:
                raise SystemExit(f"{tag} probe failed: {res['stderr'].strip()}")
            vals.append(float(res["stdout"]) if inner else res["wall_s"] * 1e3)
        return statistics.median(vals)

    def coverage(self) -> None:
        """Traced and not counted: a round of each other workload and the closed
        form of the scheme III/IV targets, so every layer gets timed."""
        seg = Segment()
        if self.workload != "mixed_targets":
            for t in self.wl.make_rounds("mixed_targets", self.seed, 1)[0]:
                self.target("mixed", t, seg, traced=True)
        chains = self.wl.make_rounds("decoherer_chains", self.seed, 1)[0]
        for t in chains:
            if self.workload != "decoherer_chains":
                self.target("chain", t, seg, traced=True)
            if "family" in t:
                self.target("closed", t, seg, traced=True)
        if self.workload != "cli_pipeline":
            t = next(t for t in self.wl.make_rounds("cli_pipeline", self.seed)[0] if "family" in t)
            self.target("cli", t, seg, traced=False)
            self.target("cli", t, seg, traced=True)
        if seg.failed:
            self.problems.append(f"coverage pass: {seg.failed} targets failed")


# ---------------------------------------------------------------------------


def end_to_end(bench: Bench, seconds: int) -> tuple[Segment, dict]:
    rounds = bench.wl.make_rounds(bench.workload, bench.seed)
    if bench.kind() != "cli":
        bench.run_round(rounds[0], Segment())  # warm-up, not reported
    # set-up probes at even steps of the timed work, so they meet the same
    # spells of the machine as the targets
    walls = []

    def probes_due(seg: Segment) -> None:
        while len(walls) < PROBES and seg.elapsed >= len(walls) * seconds / PROBES:
            walls.append(bench.setup_probe(len(walls)))

    seg = bench.segment(rounds, seconds, probes_due)
    walls += [bench.setup_probe(k) for k in range(len(walls), PROBES)]
    setup = statistics.median(walls)
    if bench.kind() == "cli":
        rss_kb = bench.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cli = bench.kind() == "cli"
    ms = seg.target_ms()
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    # seven pipelines in two clusters (five or six commands): their median
    # would sit on the gap, so the CLI's median is over all its executions
    p50 = statistics.median(x * 1e3 for v in seg.by_target.values() for x in v) \
        if cli else statistics.median(ms)
    values = {
        "setup_s": setup,
        "targets_per_s": (seg.attempted - seg.failed) / seg.scaled,
        "target_ms_p50": p50,
        "target_ms_p99": p99,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    log(f"{bench.workload}: {seg.attempted} executions of {len(ms)} targets in {seg.rounds} "
        f"rounds, {seg.elapsed:.2f} s timed; set-up {setup:.3f} s")
    clock = bench.clock
    log(f"scaled to the reference speed: {seg.scaled:.2f} s, unscaled "
        f"{(seg.attempted - seg.failed) / seg.elapsed:.4g} targets/s; `import numpy` median "
        f"{statistics.median(clock.child_samples):.3f} s (reference {REF_CHILD_S} s)"
        + (f", kernel median {statistics.median(clock.samples) * 1e6:.0f} us (reference "
           f"{REF_KERNEL_S * 1e6:.0f} us)" if clock.samples else ""))
    return seg, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(bench: Bench, seconds: int, trace_path: Path) -> tuple[Segment, dict]:
    import tracer as tracing

    rounds = bench.wl.make_rounds(bench.workload, bench.seed)
    if bench.kind() != "cli":
        bench.run_round(rounds[0], Segment())  # warm-up
    bench.tracer = tracing.Tracer()
    bench.tracer.install()
    # each round runs untraced, then traced: both see the same spells of the
    # machine, so their difference is the tracing overhead
    plain, seg = Segment(), Segment()
    counted: set[int] = set()  # ids of the traced targets; coverage ones do not count
    while plain.elapsed < seconds / 2.0:
        targets = rounds[plain.rounds % len(rounds)]
        bench.run_round(targets, plain)
        first = bench.next_id
        bench.run_round(targets, seg, traced=True)
        counted.update(range(first, bench.next_id))
    bench.coverage()
    summary = tracing.summarize(bench.tracer.spans, counted)
    bench.tracer.dump(trace_path)

    units = per_layer_units()
    values = {}
    for fn in TIMED:
        values[f"{fn}.us"] = summary["us"].get(fn)
    for fn in COUNTED:
        values[f"{fn}.calls_per_target"] = summary["calls_per_target"].get(fn, 0.0)
    values["compilers.simulate_recipe.self_us"] = summary["self_us"].get("compilers.simulate_recipe")
    values["recipe_io.recipe_bytes"] = statistics.median(
        n for _, m in bench.memo.values() for n in m.get("recipe_bytes", ())
    )
    values["cli.import_ms"] = bench.subprocess_ms(
        [sys.executable, str(HERE / "probe.py"), "import"], "import", inner=True
    )
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.ms"] = statistics.median(bench.cmd_ms[cmd])
    values["python.start_ms"] = bench.subprocess_ms([sys.executable, "-c", "pass"], "start")
    for layer in tracing.LAYERS:
        values[f"{layer}.self_share"] = summary["self_share"].get(layer, 0.0)
    values["trace.overhead_pct"] = (seg.elapsed / plain.elapsed - 1.0) * 100.0
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise SystemExit(f"not measured: {', '.join(missing)}")
    log(f"{bench.workload}: traced {seg.attempted} targets ({len(bench.tracer.spans)} spans, "
        f"overhead {values['trace.overhead_pct']:.1f}%), trace in {trace_path}")
    return seg, {k: {"value": values[k], "unit": units[k]} for k in units}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qforge" / "__init__.py").is_file():
        log(f"error: no qforge sources under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # one target at a time, on one CPU: the benchmark and its child processes
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            seg, metrics = per_layer(bench, args.seconds, OUT / f"trace-{tag}.jsonl.gz")
        else:
            seg, metrics = end_to_end(bench, args.seconds)

        import selfcheck

        _, misses = selfcheck.run(workdir / "selfcheck")
        if misses:
            log("\n".join(f"self-check: {m}" for m in misses))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in bench.failures[:10] + bench.problems[:10]:
        log(p)
    result = {
        "correct": not bench.problems,
        "attempted": seg.attempted,
        "failed": seg.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
