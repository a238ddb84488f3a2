"""One workload process.  `run.py` starts it; do not run it by hand.

Usage: python3 bench/worker.py '<json config>'

The config names a mode:
  setup   set up (import, build, draw inputs) and report when ready
  import  report how long `import cayleymap.cli` takes in a fresh process
  run     set up, then run the passes of the workload sized for `seconds`
  verify  run `cayleymap verify` once through `cli.main` in this process

BLAS is pinned to one thread before numpy is imported.  Results go to the
JSON file named by `out`.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _numpy_env() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def _import_cayleymap():
    import cayleymap

    if not Path(cayleymap.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cayleymap imported from {cayleymap.__file__}, not from this checkout's src/")


_REFERENCE = {}
REF_EVERY_NS = 125_000_000


def reference_s(kind: str = "small") -> tuple[int, float]:
    """When (perf_counter ns) and how long (process CPU s) one run of a fixed
    numpy-only reference kernel took.

    The kernel does the kind of work the workload does, so it slows down and
    speeds up with the machine the way the workload does; run.py divides by
    it to take the host's speed swings out of the figures.  "small" makes
    the calls most of the library makes (small complex det / solve / eigvals
    / svd and an einsum contraction, from Python); "gemm" multiplies dense
    384 x 384 complex matrices, the products that matrix_exp chains on the
    gamma matrix, which are most of the time of the spin workload (and which
    a shared host slows down differently from small Python-bound calls).
    Neither uses cayleymap code, so a change to the library does not move it.
    """
    import numpy as np

    if kind not in _REFERENCE:
        rng = np.random.default_rng(20011024)
        if kind == "small":
            mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in range(4, 17)]
            _REFERENCE[kind] = mats, rng.standard_normal((36, 6, 6)) + 0j
        else:
            _REFERENCE[kind] = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    c0 = time.process_time_ns()
    if kind == "small":
        mats, stack = _REFERENCE[kind]
        for m in mats:
            np.linalg.det(m)
            np.linalg.solve(m, m)
            np.linalg.eigvals(m)
            np.linalg.svd(m, compute_uv=False)
            np.einsum("iab,jba->ij", stack, stack)
    else:
        a = _REFERENCE[kind]
        (a @ a) @ a
    return time.perf_counter_ns(), (time.process_time_ns() - c0) * 1e-9


def reference_samples(kinds, count: int = 1) -> dict:
    """`count` samples of each kernel in `kinds`, as {kind: [(when, s), ...]}."""
    return {kind: [reference_s(kind) for _ in range(count)] for kind in kinds}


def add_samples(ref: dict, more: dict) -> None:
    for kind, samples in more.items():
        ref[kind] += samples


def mode_import(cfg: dict) -> dict:
    t0 = time.perf_counter()
    import cayleymap.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0}


def _layer_values(spans, setup_ids, pass_ids, pass_walls_ns, setup_wall_ns) -> dict:
    """Per-layer totals for one set-up plus one average pass.

    Counts are set-up calls plus mean calls per traced pass; self times are
    the same in seconds, and as a share of (set-up wall + mean pass wall).
    """
    import spans as sp
    from cayleymap import suites

    setup = sp.totals(spans, setup_ids)
    passes = sp.totals(spans, pass_ids)
    npass = max(1, len(pass_ids))
    wall_s = (setup_wall_ns + sum(pass_walls_ns) / npass) * 1e-9

    def row(name):
        a = setup.get(name, [0] * 7)
        b = passes.get(name, [0] * 7)
        return [x + y / npass for x, y in zip(a, b)]

    values = {}
    for name in sp.FUNCTIONS + ["clifford.tables", "cli.main"]:
        calls, fails, self_ns, _total, skipped, valid, admissible = row(name)
        values[f"{name}.calls"] = calls
        values[f"{name}.fails"] = fails
        values[f"{name}.self_s"] = self_ns * 1e-9
        values[f"{name}.self_pct"] = 100.0 * self_ns * 1e-9 / wall_s
        if name == "degree.spin_fiber":
            values[f"{name}.skipped"] = skipped
            values[f"{name}.useful_ratio"] = valid / admissible if admissible else 0.0
    for suite in sorted(suites.SUITES):
        total_ns = row(f"suites.{suite}")[3]
        values[f"suites.{suite}.s"] = total_ns * 1e-9
        values[f"suites.{suite}.pct"] = 100.0 * total_ns * 1e-9 / wall_s
    return values


def mode_verify(cfg: dict) -> dict:
    """One `cayleymap verify` through cli.main; untraced runs time each claim trial."""
    import dataclasses

    t0 = time.perf_counter()
    import cayleymap.cli as cli

    import_s = time.perf_counter() - t0
    # CPU from process start until the CLI can run, as in a no-op invocation
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ready_cpu = usage.ru_utime + usage.ru_stime
    _import_cayleymap()
    from cayleymap import suites

    claim_cpu = []
    ref = reference_samples(["small"], 3)
    last_ref = [time.perf_counter_ns()]
    tracer = None
    if cfg["trace"]:
        import spans as sp

        tracer = sp.Tracer()
        tracer.install()
    else:

        def timed(run):
            def inner(rng, trial):
                start = time.process_time_ns()
                try:
                    return run(rng, trial)
                finally:
                    claim_cpu.append(time.process_time_ns() - start)
                    # sample the reference kernel every REF_EVERY_NS, between claims
                    if time.perf_counter_ns() - last_ref[0] > REF_EVERY_NS:
                        add_samples(ref, reference_samples(["small"]))
                        last_ref[0] = time.perf_counter_ns()

            return inner

        for claims in suites.SUITES.values():
            claims[:] = [dataclasses.replace(c, run=timed(c.run)) for c in claims]

    argv = ["verify", "--suite", "all", "--trials", str(cfg["trials"]), "--seed", str(cfg["seed"])]
    argv += ["--report", cfg["report"]]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        root = tracer.open("bench.pass") if tracer else None
        a = time.perf_counter_ns()
        code = cli.main(argv)
        wall_ns = time.perf_counter_ns() - a
        if tracer:
            tracer.close(root)
    add_samples(ref, reference_samples(["small"], 3))
    out = {"exit": code, "claim_cpu": claim_cpu, "import_s": import_s, "main_ns": wall_ns, "ready_cpu": ready_cpu}
    out["ref"] = ref
    if tracer:
        tracer.uninstall()
        import spans as sp

        out["layers"] = _layer_values(tracer.spans, [], [root[sp.ID]], [wall_ns], 0)
        out["coverage"] = sp.coverage(tracer.spans, REQUIRED_COVERAGE["verify"])
        tracer.dump(cfg["spans"])
    return out


# Coverage rules (spans.COVERAGE_RULES) each workload must exercise.
REQUIRED_COVERAGE = {
    "project": ["bench.setup", "representation.cayley", "representation.psi"],
    "spin": ["bench.setup", "bench.spin_chain"],
    "fiber": ["degree.sl_fiber"],
    "verify": ["representation.cayley", "representation.psi", "degree.sl_fiber"],
}


def mode_run(cfg: dict, setup_only: bool) -> dict:
    """Set up, then run the workload's passes for `seconds` (alternating
    untraced and traced ones when tracing); check each pass after timing it."""
    import spans as sp

    _import_cayleymap()
    import ops

    wl = ops.WORKLOADS[cfg["workload"]](cfg["smoke"])
    tracer = sp.Tracer() if cfg["trace"] and not setup_only else None
    if tracer:
        tracer.install()
        setup_span = tracer.open("bench.setup", {"calls": wl.setup_calls})
    wl.setup()
    wl.draw(cfg["seed"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ready_cpu = usage.ru_utime + usage.ru_stime
    if tracer:
        tracer.close(setup_span)
        tracer.uninstall()
    if setup_only:
        return {"ready_cpu": ready_cpu}

    passes = []
    perturbed = {}  # label -> (args, meta, a wrong copy of a correct output)
    good_labels = set()
    pass_ids = []
    traced_walls = []
    # the small kernel scales set-up, the workload's own kernel its passes
    kinds = sorted({"small", wl.reference})
    ref = reference_samples(kinds, 3)
    last_ref = time.perf_counter_ns()
    # a fixed pass count, so a seed always gives the same ops and failures;
    # a traced run alternates plain and traced passes, a quarter as many pairs
    count = wl.passes(cfg["seconds"])
    for k in range(max(1, count // 4) if tracer else count):
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
                root = tracer.open("bench.pass")
            ops_k = wl.pass_ops(k)
            records = []
            ref_wall = ref_cpu = 0
            t0, c0 = time.perf_counter_ns(), time.process_time_ns()
            for label, fn, args, meta in ops_k:
                span = tracer.open(f"bench.{label}", {"n": meta} if isinstance(meta, int) else None) if traced else None
                ca = time.process_time_ns()
                try:
                    out, err = fn(*args), None
                except Exception as exc:  # a failed op is counted, never fatal
                    out, err = None, exc
                b, cb = time.perf_counter_ns(), time.process_time_ns()
                if traced:
                    tracer.close(span, err is not None)
                records.append((label, args, meta, out, err, cb - ca))
                # sample the reference kernel every ref_every_ns, between ops,
                # and leave its time out of the pass
                if not traced and b - last_ref >= wl.ref_every_ns:
                    add_samples(ref, reference_samples(kinds))
                    last_ref = time.perf_counter_ns()
                    ref_wall += last_ref - b
                    ref_cpu += time.process_time_ns() - cb
            t1 = time.perf_counter_ns()
            wall = t1 - t0 - ref_wall
            cpu = time.process_time_ns() - c0 - ref_cpu
            if traced:
                tracer.close(root)
                tracer.uninstall()
                pass_ids.append(root[sp.ID])
                traced_walls.append(wall)
            ok = []
            known = 0
            for label, args, meta, out, err, _cpu in records:
                good = err is None and _safe(wl.check, label, args, out, meta)
                ok.append(good)
                known += not good and _safe(wl.known_defect, label, args, out, err, meta)
                if good and label not in perturbed:
                    good_labels.add(label)
                    bad = wl.perturb(label, out)
                    if bad is not None:
                        perturbed[label] = (args, meta, bad)
            passes.append(
                {
                    "traced": traced,
                    "span_ns": [t0, t1],
                    "wall_ns": wall,
                    "cpu_ns": cpu,
                    "lat_cpu": [r[5] for r in records],
                    "ok": ok,
                    "known_defect": known,
                    "errors": sorted({type(r[4]).__name__ for r in records if r[4] is not None}),
                }
            )
        k += 1

    # the oracle must reject a deliberately wrong output of every op kind,
    # and not take it for the known defect
    self_check = dict.fromkeys(good_labels, False)
    for label, (args, meta, bad) in perturbed.items():
        self_check[label] = not (
            _safe(wl.check, label, args, bad, meta) or _safe(wl.known_defect, label, args, bad, None, meta)
        )
    add_samples(ref, reference_samples(kinds, 3))
    result = {"ready_cpu": ready_cpu, "passes": passes, "self_check": self_check, "ref": ref}
    result["ref_kind"] = wl.reference
    result["tail_block"] = wl.tail_block
    result["low_quartile"] = wl.low_quartile
    if tracer:
        setup_wall = setup_span[sp.END] - setup_span[sp.START]
        result["layers"] = _layer_values(tracer.spans, [setup_span[sp.ID]], pass_ids, traced_walls, setup_wall)
        result["coverage"] = sp.coverage(tracer.spans, REQUIRED_COVERAGE[cfg["workload"]])
        tracer.dump(cfg["spans"])
    return result


def _safe(verdict, *args) -> bool:
    """An oracle verdict; an output the oracle cannot even evaluate is
    neither correct nor a known defect."""
    try:
        return bool(verdict(*args))
    except Exception:
        return False


def main() -> None:
    cfg = json.loads(sys.argv[1])
    mode = cfg["mode"]
    if mode == "import":
        result = mode_import(cfg)
    elif mode == "verify":
        result = mode_verify(cfg)
    else:
        result = mode_run(cfg, setup_only=mode == "setup")
    if mode != "import":
        result["env"] = _numpy_env()
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
