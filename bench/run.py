#!/usr/bin/env python3
"""Batch benchmark for the ``lexevo`` command line.

Usage (from the repository root)::

    python3 bench/run.py --workload paper-rows --seed 1 --seconds 42 --trace 0

The benchmark generates a synthetic Scopus-style export from ``--seed``
(cached by seed and size under ``.bench_work/``, outside the timed
window), writes the workload's config, and runs the real CLI from
``src/`` in child processes, one at a time (closed loop, one client).

``--trace 0`` measures what a user waits for; each repetition runs the
workload's ``lexevo`` processes once:

- ``wall_s``: spawn to exit of every process of a repetition, summed;
  median over repetitions;
- ``setup_s``: spawn to the entry of the stage function of every process
  of a repetition, summed (interpreter start, ``import lexevo.cli``,
  argument parsing, logging set-up and ``load_config``); median over
  repetitions. Each process reports the instant its stage starts;
- ``peak_rss_mb``: largest ``ru_maxrss`` of any process of a repetition
  (from ``os.wait4``); median over repetitions.

``--trace 1`` makes the same untraced repetitions, then one traced pass
that runs each stage in its own process under ``bench/traced.py`` and
reports the per-layer metrics listed in ``BENCHMARK.json``.

Every repetition is checked (``bench/checks.py``): exit codes, the
artifacts the README lists, the generator's bookkeeping, byte-identical
artifacts across repetitions, and the CA model against an independent
sparse recomputation. A repetition that fails any check counts as
failed. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
from corpus_gen import CorpusSize, generate, to_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS/OpenMP threads per lexevo process: two, or fewer on a smaller
# machine. On two cores, ten ca-wide runs alternating one and two threads
# gave the same spread (0.033 and 0.023 of the median over five seeds
# each), and two threads were 20 % faster, which keeps a run short.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
MIN_REPS = 2  # byte-identity across repetitions needs two of them
RUN_DEADLINE_S = 160.0  # children are killed after this, so a run ends within 180 s
STAGES = ("ingest", "stats", "ca", "periods", "figures")

# The ``lexevo`` console script is ``lexevo.cli:main``. This runs the same
# entry point from the checkout's ``src``, with every stage function
# wrapped so that on entry it writes ``time.perf_counter()`` to the file
# descriptor named by ``STAMP_FD``. On Linux that clock is CLOCK_MONOTONIC,
# the same in parent and child, so the stamp minus the spawn instant is the
# process's set-up.
STAMP_FD = "BENCH_STAGE_STAMP_FD"
DRY = "BENCH_DRY"  # when set, the wrapper returns without calling the stage
CLI = f"""\
import os, sys, time
from lexevo import cli
def stamped(stage):
    def entry(cfg):
        os.write(int(os.environ["{STAMP_FD}"]), repr(time.perf_counter()).encode())
        return None if os.environ.get("{DRY}") else stage(cfg)
    return entry
cli._COMMANDS = {{name: stamped(stage) for name, stage in cli._COMMANDS.items()}}
sys.exit(cli.main())
"""

SCHEMA_CONFIG = """\
schema.title = Title
schema.abstract = Abstract
schema.keywords = Author Keywords
schema.year = Year
schema.doc_type = Document Type
schema.citations = Cited by
"""


@dataclass(frozen=True)
class Workload:
    size: CorpusSize
    config: str  # config lines beyond the input and the column mapping
    commands: tuple[str, ...]  # lexevo subcommands of one repetition, in order
    ca_matrix: str  # the artifact holding the matrix the CA stage fits


WORKLOADS = {
    # The paper's row counts (14,162 loaded, 12,787 retained) with a
    # 500-1,000 term vocabulary: CSV parse, tokenize, DTM build and the
    # triplet artifacts dominate; the dense CA stays small.
    "paper-rows": Workload(
        CorpusSize(loaded=14162, retained=12787, pool=40000, zipf=1.0, drift=3.0),
        "min_term_freq = 180\n",
        ("run",),
        "dtm.tsv",
    ),
    # ~2,000 documents, ~7,500 terms: densifying the matrix and the full
    # dense SVD set both wall time and peak memory.
    "ca-wide": Workload(
        CorpusSize(loaded=2150, retained=2000, pool=40000, zipf=0.82, drift=3.0),
        "min_term_freq = 5\n",
        ("run",),
        "dtm.tsv",
    ),
    # ~1,200 documents run stage by stage, CA fed from weighted.tsv: five
    # process set-ups and the artifact round trips show here.
    "staged-weighted": Workload(
        CorpusSize(loaded=1290, retained=1200, pool=40000, zipf=1.0, drift=3.0),
        "min_term_freq = 10\nca_input = weighted\nweighting = relative-frequency\n",
        STAGES,
        "weighted.tsv",
    ),
}

# Per-layer time metrics: the spans (``<module>.<function>``, see
# bench/traced.py) whose durations each one sums over every call.
LAYER_SPANS = {
    **{f"pipeline.{s}_s": (f"pipeline.stage_{s}",) for s in STAGES},
    "setup.import_s": ("setup.import",),
    "config.load_s": ("config.load_config",),
    "corpus.load_s": ("corpus.load_corpus_csv",),
    "corpus.filter_s": ("corpus.filter_corpus",),
    "corpus.write_s": ("corpus.write_corpus_csv", "corpus.write_rejects_report"),
    "textpipe.tokenize_s": ("textpipe.tokenize_documents",),
    "textpipe.stopwords_s": ("textpipe.remove_stopwords",),
    "textpipe.vocabulary_s": ("textpipe.build_vocabulary",),
    "textpipe.dtm_build_s": ("textpipe.build_dtm",),
    "textpipe.weight_s": ("textpipe.weight_matrix",),
    "textpipe.counts_write_s": ("textpipe.write_counts_tsv",),
    "textpipe.counts_read_s": ("textpipe.read_counts_tsv", "textpipe.dtm_from_triplets"),
    "stats.uniqueness_s": ("textpipe.uniqueness_stats",),
    "stats.trend_s": ("stats.fit_quadratic_trend",),
    "ca.input_s": ("ca.CaInput.from_counts",),
    "ca.compute_s": ("ca.compute_ca",),
    "ca.year_profiles_s": ("ca.aggregate_year_profiles",),
    "ca.project_s": ("ca.project_supplementary",),
    "ca.io_s": ("ca.write_coordinates_tsv", "ca.write_model_json",
                "ca.write_year_coords_tsv", "ca.read_model_artifacts",
                "ca.read_year_coords_tsv"),
    "periods.report_s": ("periods.period_report",),
    "periods.characteristic_terms_s": ("periods.characteristic_terms",),
    "periods.pioneer_s": ("periods.pioneer_documents",),
    "viz.cloud_layout_s": ("viz.layout_word_cloud",),
    "viz.render_s": ("viz.render_bar_chart", "viz.render_trend_chart",
                     "viz.render_ca_map", "viz.render_word_cloud"),
}
LAYER_CALLS = {
    "corpus.load_calls": "corpus.load_corpus_csv",
    "textpipe.tokenize_calls": "textpipe.tokenize_documents",
    "textpipe.counts_read_calls": "textpipe.read_counts_tsv",
    "periods.characteristic_terms_calls": "periods.characteristic_terms",
}


@dataclass(frozen=True)
class Proc:
    argv: list[str]
    code: int
    wall_s: float
    setup_s: float | None  # None when no stage function started
    maxrss_mb: float


def spawn(argv: list[str], env: dict, log: Path, deadline: float) -> Proc:
    """Run one child to completion; wall time from spawn to exit, set-up
    from spawn to the stage stamp (if the child writes one) and peak
    resident set from ``os.wait4``. The child is killed at ``deadline``."""
    stamp_read, stamp_write = os.pipe()
    try:
        env = {**env, STAMP_FD: str(stamp_write)}
        with open(log, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=fh, pass_fds=(stamp_write,))
            timer = threading.Timer(max(0.0, deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        os.close(stamp_write)
        stamp_write = -1
        stamp = os.read(stamp_read, 64)
    finally:
        os.close(stamp_read)
        if stamp_write >= 0:
            os.close(stamp_write)
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp) - start if stamp else None
    return Proc(argv, proc.returncode, wall, setup, usage.ru_maxrss / 1024)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def corpus_for(size: CorpusSize, seed: int) -> tuple[Path, dict]:
    """The export for (size, seed), generated once and cached on disk."""
    generator = hashlib.sha256((HERE / "corpus_gen.py").read_bytes()).hexdigest()[:12]
    key = (f"{size.loaded}x{size.retained}-p{size.pool}-z{size.zipf}-d{size.drift}"
           f"-s{seed}-g{generator}")
    cached = WORK / "corpora" / key
    if not (cached / "bookkeeping.json").is_file():
        rows, bookkeeping = generate(seed, size)
        tmp = cached.with_name(f"{key}.tmp{os.getpid()}")
        tmp.mkdir(parents=True)
        (tmp / "export.csv").write_text(to_csv(rows), encoding="utf-8")
        (tmp / "bookkeeping.json").write_text(json.dumps(bookkeeping, indent=1), encoding="utf-8")
        shutil.rmtree(cached, ignore_errors=True)
        tmp.rename(cached)
    return cached / "export.csv", json.loads((cached / "bookkeeping.json").read_text())


class Run:
    """One benchmark invocation: its workload, files and deadline."""

    def __init__(self, name: str, seed: int):
        self.wl = WORKLOADS[name]
        self.dir = WORK / "runs" / f"{name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        export, self.bookkeeping = corpus_for(self.wl.size, seed)
        self.config = self.dir / "lexevo.conf"
        self.config.write_text(f"input = {export}\n{SCHEMA_CONFIG}{self.wl.config}",
                               encoding="utf-8")
        self.env = child_env()
        self.log = WORK / "results" / f"{name}-s{seed}.log"
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def lexevo(self, prefix: list[str], command: str, out: Path) -> Proc:
        argv = [sys.executable, *prefix, command, "--config", str(self.config), "--out", str(out)]
        return spawn(argv, self.env, self.log, self.deadline)

    def warm_up(self) -> None:
        """One untimed process that runs the set-up and skips the stage: it
        compiles bytecode and warms the file cache, so the first repetition's
        set-up is not slower than the others'. Whatever makes it fail fails
        the repetitions too, where it is counted."""
        argv = [sys.executable, "-c", CLI, self.wl.commands[0], "--config", str(self.config),
                "--out", str(self.dir / "warm-up")]
        spawn(argv, {**self.env, DRY: "1"}, self.log, self.deadline)

    def repetition(self, out: Path) -> list[Proc]:
        shutil.rmtree(out, ignore_errors=True)
        procs = []
        for command in self.wl.commands:
            procs.append(self.lexevo(["-c", CLI], command, out))
            if procs[-1].code != 0:
                break
        return procs

    def content_errors(self, out: Path) -> list[str]:
        errors = checks.artifacts_present(out, with_manifest=self.wl.commands == ("run",))
        if errors:
            return errors
        try:
            return checks.bookkeeping_matches(out, self.bookkeeping) + checks.ca_matches(
                out, self.wl.ca_matrix)
        # An artifact that does not parse, or an svds that does not converge,
        # fails the repetition instead of ending the run without a result.
        except Exception as exc:  # noqa: BLE001
            return [f"check could not run: {type(exc).__name__}: {exc}"]


def exit_errors(procs: list[Proc], expected: int) -> list[str]:
    errors = [f"{' '.join(p.argv[-5:])} exited {p.code}" for p in procs if p.code != 0]
    if not errors and len(procs) != expected:
        errors.append(f"ran {len(procs)} of {expected} processes")
    return errors


def stamp_errors(procs: list[Proc]) -> list[str]:
    return [f"{' '.join(p.argv[-5:])} reported no stage start"
            for p in procs if p.code == 0 and p.setup_s is None]


def measure(run: Run, seconds: float) -> dict:
    """Untraced repetitions for ``seconds`` (at least ``MIN_REPS``); returns
    per-repetition records and the medians."""
    run.warm_up()
    start = time.perf_counter()
    reps: list[dict] = []
    reference: dict | None = None
    first_out = run.dir / "rep0"
    while True:
        out = first_out if not reps else run.dir / "rep"
        procs = run.repetition(out)
        errors = exit_errors(procs, len(run.wl.commands)) + stamp_errors(procs)
        if not errors:
            prints = checks.fingerprint(out)
            if reference is None:
                reference = prints
            elif prints != reference:
                changed = sorted(k for k in set(prints) | set(reference)
                                 if prints.get(k) != reference.get(k))
                errors.append(f"artifacts differ from the first repetition: {changed}")
        reps.append({
            "wall_s": sum(p.wall_s for p in procs),
            "setup_s": sum(p.setup_s or 0.0 for p in procs),
            "peak_rss_mb": max(p.maxrss_mb for p in procs),
            "processes": [{"argv": p.argv[-5:], "code": p.code, "wall_s": p.wall_s,
                           "setup_s": p.setup_s, "maxrss_mb": p.maxrss_mb} for p in procs],
            "errors": errors,
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if (any(p.code != 0 for p in procs) or time.perf_counter() > run.deadline
                or (len(reps) >= MIN_REPS and elapsed + typical > seconds)):
            break
    # Content checks run once, outside the timed window, on the first
    # repetition; the others are byte-identical to it or already failed.
    content = run.content_errors(first_out) if reference is not None else []
    if content:
        for rep in reps:
            rep["errors"] += content
    return {
        "reps": reps,
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "reference": reference,
    }


def self_time(spans: list[list], index: int) -> float:
    _, start, end, _ = spans[index]
    children = sum(e - s for _, s, e, parent in spans if parent == index)
    return end - start - children


def traced_pass(run: Run, untraced: dict) -> tuple[dict, dict]:
    """Each stage in its own process under bench/traced.py; returns the
    per-layer metrics and the trace record."""
    out = run.dir / "traced"
    shutil.rmtree(out, ignore_errors=True)
    procs, processes, counts = [], [], {}
    for stage in STAGES:
        spans_file = run.dir / f"spans-{stage}.json"
        procs.append(run.lexevo([str(HERE / "traced.py"), str(spans_file)], stage, out))
        if procs[-1].code != 0:
            break
        data = json.loads(spans_file.read_text(encoding="utf-8"))
        processes.append({"stage": stage, "maxrss_mb": procs[-1].maxrss_mb, **data})
        counts.update(data["counts"])
    errors = exit_errors(procs, len(STAGES))
    if not errors and checks.fingerprint(out) != untraced["reference"]:
        errors.append("traced artifacts differ from the untraced repetitions")

    metrics: dict[str, float] = {name: 0.0 for name in LAYER_SPANS}
    metrics.update({name: 0 for name in LAYER_CALLS})
    for proc in processes:
        spans = proc["spans"]
        for metric, names in LAYER_SPANS.items():
            metrics[metric] += sum(e - s for n, s, e, _ in spans if n in names)
        for metric, name in LAYER_CALLS.items():
            metrics[metric] += sum(1 for n, *_ in spans if n == name)
        stage = proc["stage"]
        top = [i for i, sp in enumerate(spans) if sp[0] == f"pipeline.stage_{stage}"]
        metrics[f"pipeline.{stage}.self_s"] = sum(self_time(spans, i) for i in top)
        metrics[f"pipeline.{stage}.peak_rss_mb"] = proc["maxrss_mb"]
    metrics.update(counts)
    metrics["pipeline.bytes_written"] = sum(
        p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0
    traced_wall = sum(p.wall_s for p in procs)
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    record = {"wall_s": traced_wall, "errors": errors, "processes": processes}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexevo" / "cli.py").is_file():
        print(f"error: no lexevo sources under {SRC}", file=sys.stderr)
        return 2
    if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
        print("error: set-up timing needs perf_counter on CLOCK_MONOTONIC", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed)
    env = environment()
    print("env", json.dumps(env, sort_keys=True))
    result = measure(run, args.seconds)
    reps = result["reps"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "bookkeeping": run.bookkeeping, **result}
    values = {k: result[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    attempted = len(reps)
    failed = sum(1 for r in reps if r["errors"])
    if args.trace:
        values, record["traced"] = traced_pass(run, result)
        attempted += 1
        failed += bool(record["traced"]["errors"])
        ca_share = values["pipeline.ca_s"] / result["wall_s"]
        ingest_share = (values["pipeline.ingest_s"] + values["pipeline.stats_s"]) / result["wall_s"]
        print(f"shares of untraced wall_s {result['wall_s']:.3f} s: "
              f"ca {ca_share:.3f}, ingest+stats {ingest_share:.3f}, "
              f"setup {result['setup_s'] / result['wall_s']:.3f}")

    for rep in reps + ([record["traced"]] if args.trace else []):
        for error in rep["errors"]:
            print(f"check failed: {error}")
    print(f"reps {len(reps)}: wall_s {[round(r['wall_s'], 3) for r in reps]}")
    for m in contract["end_to_end"]:
        print(f"{m['name']} {result[m['name']]:.4f} {m['unit']}")
    print(f"failed_frac {failed / attempted:.4f} ratio ({failed}/{attempted})")

    # A failed traced pass leaves some layers unmeasured; they read 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if failed else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    (WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
