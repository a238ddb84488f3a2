"""Compare `cayleymap verify` reports claim by claim.

Usage (from the root of a checkout):

  python tools/report_diff.py OLD.json NEW.json
  python tools/report_diff.py --trees OLD_TREE NEW_TREE --seeds 0 1 2 3

The first form compares two report files written by `cayleymap verify
--report`.  The second runs `verify --suite all --trials 50` in each tree
(its src on PYTHONPATH, in this interpreter and environment) at every seed
and compares the two reports of each seed; both must come from one
environment, as the bits of a residual follow numpy and BLAS.

For every claim whose records differ it prints the worst residual, old ->
new, the tolerance, each record whose pass flag flipped and each record
whose error text changed.  Identical reports print one line saying so.
Exit status: 0 when no pass flag flipped, 1 when one did, 2 when a report
cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRIALS = 50  # verify trials per seed in the two-tree form, as the suites' acceptance runs use


def load_records(path) -> dict:
    """{(suite, claim, trial): record} of one verify report."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {(s["suite"], r["claim"], r["trial"]): r for s in report["suites"] for r in s["records"]}


def _worst(values) -> float:
    """The largest residual, NaN if any is NaN, as the suites fold them."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values, default=0.0)


def _text(value) -> str:
    return repr(float(value))


def _same(a: dict, b: dict) -> bool:
    """Two records alike as the report writes them (a NaN residual equals a NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def diff_records(old: dict, new: dict) -> tuple[list[str], int]:
    """The lines that describe how new differs from old, and the number of flipped pass flags."""
    lines, flips = [], 0
    for key in sorted(old.keys() - new.keys()):
        lines.append(f"{key[0]}/{key[1]} trial {key[2]}: only in the old report")
    for key in sorted(new.keys() - old.keys()):
        lines.append(f"{key[0]}/{key[1]} trial {key[2]}: only in the new report")
    claims: dict[tuple[str, str], list] = {}
    for key in sorted(old.keys() & new.keys()):
        claims.setdefault(key[:2], []).append((key[2], old[key], new[key]))
    for (suite, claim), pairs in claims.items():
        if all(_same(a, b) for _, a, b in pairs):
            continue
        moved = sum(_text(a["residual"]) != _text(b["residual"]) for _, a, b in pairs)
        worst_old = _worst(a["residual"] for _, a, _ in pairs)
        worst_new = _worst(b["residual"] for _, _, b in pairs)
        tols = sorted({_text(a["tolerance"]) for _, a, _ in pairs} | {_text(b["tolerance"]) for _, _, b in pairs})
        lines.append(
            f"{suite}/{claim}: worst residual {_text(worst_old)} -> {_text(worst_new)}, "
            f"tolerance {' / '.join(tols)}, {moved} of {len(pairs)} residuals moved"
        )
        for trial, a, b in pairs:
            if a["pass"] != b["pass"]:
                flips += 1
                lines.append(f"  trial {trial}: pass {a['pass']} -> {b['pass']} (residual {_text(a['residual'])} -> {_text(b['residual'])})")
            if a.get("error") != b.get("error"):
                lines.append(f"  trial {trial}: error {a.get('error')!r} -> {b.get('error')!r}")
    return lines, flips


def report_of(tree: Path, seed: int, out: Path) -> Path:
    """Write the `verify --suite all` report of the checkout at tree to out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "cayleymap.cli", "verify", "--suite", "all", "--trials", str(TRIALS), "--seed", str(seed), "--report", str(out)]
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1) or not out.exists():  # 1: the report holds a failed claim
        raise OSError(f"verify in {tree} at seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    return out


def compare(old_path, new_path, label: str) -> int:
    """Print the diff of two reports under label; return its number of flipped pass flags."""
    old, new = load_records(old_path), load_records(new_path)
    lines, flips = diff_records(old, new)
    if not lines:
        print(f"{label}: identical, {len(new)} records")
        return 0
    print(f"{label}: {flips} pass flag(s) flipped")
    for line in lines:
        print(f"  {line}")
    return flips


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="old report, or old tree with --trees")
    parser.add_argument("new", help="new report, or new tree with --trees")
    parser.add_argument("--trees", action="store_true", help="old and new are checkouts: run verify in each")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="verify seeds for --trees (default 0)")
    args = parser.parse_args(argv)
    flips = 0
    try:
        if not args.trees:
            flips += compare(args.old, args.new, f"{args.old} -> {args.new}")
        else:
            with tempfile.TemporaryDirectory() as tmp:
                for seed in args.seeds:
                    old = report_of(Path(args.old).resolve(), seed, Path(tmp, f"old-{seed}.json"))
                    new = report_of(Path(args.new).resolve(), seed, Path(tmp, f"new-{seed}.json"))
                    flips += compare(old, new, f"seed {seed}")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main())
