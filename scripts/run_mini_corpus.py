#!/usr/bin/env python3
"""Run the full pipeline on the bundled demo corpus and print a digest.

This is the quickest way to see every stage produce its artifacts without
writing a config by hand: the script runs the checked-in
``configs/mini.conf`` (which points at the CSV shipped inside the package)
through the same entry point as the ``lexevo`` executable, with ``--out``
and ``--seed`` overriding the config, and then summarizes the stats /
correspondence-analysis artifacts it finds.

    python3 scripts/run_mini_corpus.py --out out/demo --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from lexevo.cli import main as lexevo_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "mini.conf"


def run(out: Path, seed: int) -> int:
    code = lexevo_main(
        ["run", "--config", str(CONFIG), "--out", str(out), "--seed", str(seed)]
    )
    if code != 0:
        return code

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))

    n_files = sum(1 for p in out.iterdir() if p.is_file())
    print(f"config   : {CONFIG}")
    print(f"artifacts: {out} ({n_files} files)")
    summary = manifest["summary"]
    print(
        f"corpus   : {summary['documents']} documents retained, "
        f"{summary['vocabulary_size']} vocabulary terms"
    )
    trend = stats["trend"]
    print(
        f"trend    : y = {trend['c2']:.3f}x^2 + {trend['c1']:.3f}x + "
        f"{trend['c0']:.3f}   (R^2 = {trend['r_squared']:.4f})"
    )
    dims = summary["dims"]
    shares = ", ".join(f"{s * 100:.1f}%" for s in summary["inertia_shares"][:dims])
    print(f"ca       : {dims} dimensions retained, inertia shares {shares}")
    for stage in manifest["stages"]:
        print(f"           {stage['name']:<8} {stage['seconds'] * 1000:7.1f} ms")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("out/demo"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    return run(args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
