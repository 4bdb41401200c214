"""Benchmark of the transfusion command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Each run of a workload is one CLI command in a fresh Python process (see
child.py), on one core: ``--workers 1`` where the command has the option.
The workloads, their flags and why each was chosen are in WORKLOADS and,
one line each, in BENCHMARK.json.

``--trace 0`` runs full commands while the next one fits in S seconds,
then set-up probes (the same command stopped at its first unit of work)
until there are MIN_SETUP set-up samples. The speed of a core on a
shared host changes by half and more within seconds, so every time below
is in reference seconds: the child times a fixed kernel twenty times a
second and each stretch of its run is rescaled to the speed at which the
kernel takes a fixed time (see calibrate.py). Kernel runs are left out.
It reports medians over the run:

- ``wall_s``: spawn to exit of a full command, seen from this process;
- ``setup_s``: spawn to the first unit of work (import, group, twist,
  sector groupoids and, for fusion-cube, context, basis and solver),
  from full commands and probes;
- ``units_per_s``: units of work divided by the time from the first unit
  to the return of ``cli.main``;
- ``peak_rss_mb``: the child's own peak resident set, from ``os.wait4``.
  (``RUSAGE_CHILDREN`` is a running maximum over all children, so it
  cannot give a per-command figure.) On Linux a child's peak also counts
  the resident set this process had when it started the child, so this
  process stays small: it never imports the library.

The table also shows the plain wall time, ``raw_wall_s``.

``--seed`` goes to verify-s4 as its ``--seed``; the other workloads have
fixed inputs and ignore it. The first stdout line records the seed, which
workloads used it, Python, platform, CPU count and the source revision.

``--trace 1`` runs the command once untraced and once traced from outside
(see tracer.py) and reports the per-layer metrics BENCHMARK.json lists,
plus ``trace.overhead_frac``, the traced ``cli.main`` time over the
untraced one, minus one. A layer function the command never calls
reports 0.

A command counts as failed if it exits non-zero, lacks ``result: pass``,
or fails its workload's output check. ``--workload all`` interleaves the
workloads round by round and prints every metric with its unit, median,
quartiles and sample count, and ``error_rate``, failed over attempted.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Spans of the last traced run of each workload are left in
.perfbench_work/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from calibrate import clock, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

# every command of one run is killed, and counts as failed, if it has not
# exited this long after the run started
RUN_BUDGET_S = 160.0
# set-up samples per run, full commands included
MIN_SETUP = 6

VERIFY_CHECKS = (
    "coboundary-squares-to-zero",
    "transgression-chain-map",
    "product-identity",
    "unit-pullback-triviality",
)


@dataclass(frozen=True)
class Workload:
    """One CLI command. ``{seed}`` in argv is replaced by the bench seed.

    marker: public library function the command calls first at the start
    of its first unit of work, and never during set-up.
    units: units of work one command finishes.
    expected: reference stdout (file in perfbench/expected), or None to
    check the lines in required_lines instead.
    """

    name: str
    argv: Tuple[str, ...]
    marker: str
    units: int
    expected: Optional[str] = None
    required_lines: Tuple[str, ...] = ()

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.argv)

    def cli_args(self, seed: str) -> List[str]:
        return [a.replace("{seed}", seed) for a in self.argv]


VERIFY_TRIALS = 2

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's cube class; cyclotomic and fusion do almost all the work
        Workload(
            name="fusion-cube",
            argv=("fusion-table", "--group", "elemab:2,3", "--poly", "xyz", "--workers", "1"),
            marker="fusion.star",
            units=22 * 22,  # ordered products of the 22 basis bundles
            expected="fusion-cube.stdout",
        ),
        # 16 sectors, sparse twist; cochains.delta, smith and projrep, no
        # cyclotomic or fusion work. transgress has no --workers option and
        # always runs in one process.
        Workload(
            name="transgress-e16",
            argv=("transgress", "--group", "elemab:2,4", "--poly", "xyz"),
            marker="cochains.shuffle_transgression",
            units=16,  # sectors
            expected="transgress-e16.stdout",
        ),
        # nonabelian, dense random cochains, the groupoid route; the only
        # workload where groupoid construction is a large share
        Workload(
            name="verify-s4",
            argv=(
                "verify", "--group", "symmetric:4", "--degree", "2",
                "--trials", str(VERIFY_TRIALS), "--seed", "{seed}", "--workers", "1",
            ),
            marker="cochains.random_cochain",
            units=VERIFY_TRIALS,  # trials
            required_lines=tuple(
                f"check {c}: pass ({VERIFY_TRIALS} trials)" for c in VERIFY_CHECKS
            ),
        ),
    )
}


@dataclass
class Outcome:
    """One child process: what it printed, its timings and its check."""

    exit: int
    stdout: bytes
    stderr: str
    wall_s: float
    rss_mb: float
    record: dict
    t_spawn: float

    @property
    def setup_s(self) -> Optional[float]:
        t = self.record.get("first_unit")
        return None if t is None else t - self.t_spawn

    @property
    def main_s(self) -> float:
        """Wall time in ``cli.main``, kernel runs left out."""
        a, b = self.record["main_start"], self.record["main_end"]
        return b - a - sum(d for s, d in self.record.get("speed", ()) if a <= s < b)

    def ref_s(self, a: float, b: float) -> float:
        return reference_seconds(self.record["speed"], a, b)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(
    w: Workload,
    seed: str,
    *,
    probe: bool = False,
    spans_path: Optional[Path] = None,
    run_id: str = "run",
    timeout: float = RUN_BUDGET_S,
) -> Outcome:
    """Run one command of w in a fresh process and wait for it."""
    WORK.mkdir(exist_ok=True)
    fd, rec_path = tempfile.mkstemp(dir=WORK, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(SRC),
           "--record", rec_path, "--marker", w.marker]
    if probe:
        cmd.append("--probe")
    if spans_path is not None:
        cmd += ["--trace", str(spans_path), "--run-id", run_id]
    cmd += ["--"] + w.cli_args(seed)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            t_spawn = clock()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env
            )
            timer = threading.Timer(timeout, _kill, (proc.pid,))
            timer.start()
            try:
                # wait4, not Popen.wait: it returns this child's own rusage.
                # Output goes to files, so no pipe can fill while we wait.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = clock()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read().decode("utf-8", "replace")
        try:
            with open(rec_path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {}
    finally:
        os.unlink(rec_path)
    return Outcome(
        exit=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=t_exit - t_spawn,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        record=record,
        t_spawn=t_spawn,
    )


def check(w: Workload, o: Outcome, probe: bool = False) -> Optional[str]:
    """Why the command failed, or None if it passed."""
    if o.exit != 0:
        tail = o.stderr.strip().splitlines()[-1:]
        return f"exit {o.exit}" + "".join(f": {line}" for line in tail)
    if "main_end" not in o.record:
        return "no timing record"
    if probe:
        return None
    lines = o.stdout.decode("utf-8", "replace").splitlines()
    if lines[-1:] != ["result: pass"]:
        return "no 'result: pass' line"
    if w.expected is not None:
        if o.stdout != (BENCH_DIR / "expected" / w.expected).read_bytes():
            return "stdout differs from the reference output"
    for line in w.required_lines:
        if line not in lines:
            return f"missing line {line!r}"
    return None


@dataclass
class Tally:
    """Samples and failures of one workload. Times are reference seconds
    (see Outcome.ref_s); raw_wall_s is plain wall time."""

    wall_s: List[float]
    setup_s: List[float]
    work_s: List[float]
    peak_rss_mb: List[float]
    raw_wall_s: List[float]
    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None

    @classmethod
    def empty(cls) -> "Tally":
        return cls([], [], [], [], [])

    def add(self, w: Workload, o: Outcome, probe: bool) -> None:
        self.attempted += 1
        error = check(w, o, probe)
        if error is None and o.setup_s is None:
            error = f"marker {w.marker} never called"
        if error is None and not o.record.get("speed"):
            error = "no speed samples"
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error
            return
        spawn_t, unit_t, exit_t = o.t_spawn, o.record["first_unit"], o.t_spawn + o.wall_s
        self.setup_s.append(o.ref_s(spawn_t, unit_t))
        if not probe:
            self.wall_s.append(o.ref_s(spawn_t, exit_t))
            self.work_s.append(o.ref_s(unit_t, o.record["main_end"]))
            self.peak_rss_mb.append(o.rss_mb)
            self.raw_wall_s.append(o.wall_s)

    def metrics(self, units: int) -> Dict[str, float]:
        """Medians over the run; empty if no full command passed."""
        if not self.wall_s:
            return {}
        return {
            "wall_s": statistics.median(self.wall_s),
            "setup_s": statistics.median(self.setup_s),
            "units_per_s": units / statistics.median(self.work_s),
            "peak_rss_mb": statistics.median(self.peak_rss_mb),
        }


def measure(w: Workload, seed: str, seconds: float, tally: Optional[Tally] = None) -> Tally:
    """Run full commands while the next one fits in ``seconds`` (at least
    one), then probe until there are MIN_SETUP set-up samples."""
    tally = tally or Tally.empty()
    start = clock()
    deadline = start + RUN_BUDGET_S
    while True:
        t0 = clock()
        tally.add(w, spawn(w, seed, timeout=deadline - t0), probe=False)
        now = clock()
        if now + (now - t0) > start + seconds:
            break
    for _ in range(MIN_SETUP):
        if len(tally.setup_s) >= MIN_SETUP or clock() >= deadline:
            break
        tally.add(w, spawn(w, seed, probe=True, timeout=deadline - clock()), probe=True)
    return tally


def traced(w: Workload, seed: str, spec_layers: Sequence[dict]) -> Tuple[Dict[str, dict], List[str]]:
    """One untraced and one traced command. Returns the per-layer metrics
    and one failure reason per failed command."""
    deadline = clock() + RUN_BUDGET_S
    plain = spawn(w, seed)
    spans = WORK / f"spans-{w.name}.jsonl"
    tr = spawn(w, seed, spans_path=spans, run_id=f"{w.name}-seed{seed}",
               timeout=deadline - clock())
    reasons = {"untraced": check(w, plain), "traced": check(w, tr)}
    if not any(reasons.values()) and tr.stdout != plain.stdout:
        reasons["traced"] = "stdout differs from the untraced run"
    errors = [f"{label}: {r}" for label, r in reasons.items() if r]
    layers = tr.record.get("layers", {})
    metrics: Dict[str, dict] = {}
    for m in spec_layers:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = tr.main_s / plain.main_s - 1 if not errors else 0.0
        else:
            value = layers.get(name, {}).get("value", 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, errors


def quartiles(xs: Sequence[float]) -> Tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def end_to_end(w: Workload, t: Tally, spec_e2e: Sequence[dict]) -> Dict[str, dict]:
    values = t.metrics(w.units)
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec_e2e}


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "transfusion").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
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


def provenance(seed: str, names: Sequence[str]) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "workers": 1,
        "seed": seed,
        "seed_used_by": [n for n in names if WORKLOADS[n].seeded],
        "seed_ignored_by": [n for n in names if not WORKLOADS[n].seeded],
    }


def print_table(w: Workload, t: Tally, spec_e2e: Sequence[dict]) -> None:
    values = t.metrics(w.units)
    for m in spec_e2e:
        v = values.get(m["name"])
        shown = f"{v:12.4f}" if v is not None else f"{'-':>12}"
        print(f"{w.name:16} {m['name']:12} {shown} {m['unit']:6} n {len(t.wall_s)}")
    for label, xs in (("wall_s", t.wall_s), ("setup_s", t.setup_s), ("raw_wall_s", t.raw_wall_s)):
        if xs:
            q1, med, q3 = quartiles(xs)
            print(f"{w.name:16} {label:12} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(xs)}")
    rate = t.failed / t.attempted if t.attempted else 0.0
    print(f"{w.name:16} {'error_rate':12} {rate:12.4f} {'ratio':6} n {t.attempted}")
    if t.first_error:
        print(f"{w.name:16} first failure: {t.first_error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", default="0")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "transfusion" / "cli.py").is_file():
        print(f"run.py: no transfusion sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # children import from warm bytecode, so no run pays for compiling. A
    # separate process compiles, so that this one stays small (see
    # peak_rss_mb above).
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "transfusion"), str(BENCH_DIR / "tracer.py")],
        stdout=subprocess.DEVNULL,
        check=False,
    )

    print("provenance: " + json.dumps(provenance(args.seed, names), sort_keys=True))
    results: Dict[str, dict] = {}
    if args.trace:
        for name in names:
            metrics, errors = traced(WORKLOADS[name], args.seed, spec["per_layer"])
            for e in errors:
                print(f"{name}: {e}")
            for k, v in metrics.items():
                print(f"{name:16} {k:42} {v['value']!r:>22} {v['unit']}")
            results[name] = {"correct": not errors, "attempted": 2,
                             "failed": len(errors), "metrics": metrics}
    else:
        tallies = {n: Tally.empty() for n in names}
        if len(names) == 1:
            measure(WORKLOADS[names[0]], args.seed, args.seconds, tallies[names[0]])
        else:
            # one command of each workload per round, so slow drift of the
            # machine spreads evenly over the workloads
            start = clock()
            while True:
                t0 = clock()
                for n in names:
                    measure(WORKLOADS[n], args.seed, 0.0, tallies[n])
                if clock() + (clock() - t0) > start + args.seconds:
                    break
        for n in names:
            t = tallies[n]
            print_table(WORKLOADS[n], t, spec["end_to_end"])
            results[n] = {"correct": t.failed == 0, "attempted": t.attempted, "failed": t.failed,
                          "metrics": end_to_end(WORKLOADS[n], t, spec["end_to_end"])}

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
