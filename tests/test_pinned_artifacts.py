"""Pinned sha256 digests of the artifacts that the bundled corpus gives.

A refactor that keeps these artifacts byte-identical passes unchanged; one
that changes a byte fails here, naming the artifact. Only artifacts whose
bytes use no LAPACK and no libm transcendental (log, exp, trigonometry) are
pinned, since those may differ in the last bit between builds.
"""

import hashlib
from pathlib import Path

import pytest

from lexevo.cli import main

MINI_CONF = Path(__file__).resolve().parent.parent / "configs" / "mini.conf"

PINNED = {
    "mini.conf": {
        "corpus.csv": "68033095e858574ad2b8e740168b426f1bee7cffb2d80da11ad6bac516117c2b",
        "filter_report.json": "7b2252a89dd229bb6a581fa350cb86ef908d2ef2f1773bee2a2480570bf78f7b",
        "rejects.tsv": "f3797c72fd31001a6ea6df0ef460504a88950abaa0224238e5189d5fa086c51e",
        "vocabulary.tsv": "62d3861a3e9ba65ee978bbff218b3314f73da6abb744854012ada02015811cd8",
        "dtm.tsv": "74cf3fae824b1eb998b94b7ea04332d36f63414efa92e1d97a526a93f48820e7",
        "weighted.tsv": "af1c789363d6ce7f9cae730568ec987ee31f6c481b5367d857bee73d296d13e9",
        "token_report.json": "81524ec00be3a2cfa5001f71174ac79d98be58274cd437e373ebb60dae7a90ed",
        "term_frequencies.tsv": "4af6d1b7e9b56a9ce82c2aadb1f68b2a7bd48d7231c519f06af4e4cb1e002eff",
        "yearly_counts.tsv": "e6081f4fcfab76edd9af56525855bf2e46bf2326cb1b5c09f7a6c3540c5de333",
        "type_shares.tsv": "2e48bdc290213f1765d868e4b4897d144c3bb4c64d3d2509b86f4e64568c2b2b",
        "periods.json": "332ed2ed450f4d1442e4b233c14b9ed554b1f1cce6567a60bb6fb609d79813a7",
        "periods.md": "a39063f298724ea42c97eb9a6a06a2eac50813142dba730c9cb979f1154aaed0",
    },
    "stoplist+auto_stop_df": {
        "corpus.csv": "68033095e858574ad2b8e740168b426f1bee7cffb2d80da11ad6bac516117c2b",
        "filter_report.json": "7b2252a89dd229bb6a581fa350cb86ef908d2ef2f1773bee2a2480570bf78f7b",
        "rejects.tsv": "f3797c72fd31001a6ea6df0ef460504a88950abaa0224238e5189d5fa086c51e",
        "vocabulary.tsv": "fe02d3b1742dcde3fc21e5db9a2aeac0dfe984d7f2a5c3065bdd229808a9952c",
        "dtm.tsv": "1a8dc7e2e46900bd0fef03d00221a76561b95a00304acfab5638ec876a4a8c5c",
        "weighted.tsv": "16d9cf310f79d22dc3e299dd7ab9674fb0addfa1c903239544c5249b99c993d4",
        "token_report.json": "81524ec00be3a2cfa5001f71174ac79d98be58274cd437e373ebb60dae7a90ed",
        "term_frequencies.tsv": "8564dd1017ec3fe6143a0a0c50f86d609f606aa4eb46596a659b31c21b13dc89",
        "yearly_counts.tsv": "e6081f4fcfab76edd9af56525855bf2e46bf2326cb1b5c09f7a6c3540c5de333",
        "type_shares.tsv": "2e48bdc290213f1765d868e4b4897d144c3bb4c64d3d2509b86f4e64568c2b2b",
        "periods.json": "b7397c8473aabbd8e7e5765ec43780f5c4f70634c0234957a03d2aa9272ebbc9",
        "periods.md": "c2aa11d9a2b9c3a5456267abe70fcfa9531d09aadc7dd03a7988b2fc7eedafb8",
    },
}


def _config(case: str, out: Path, write_mini_config) -> Path:
    """``configs/mini.conf``, or its settings plus a stoplist file and
    ``auto_stop_df = 0.5``."""
    if case == "mini.conf":
        return MINI_CONF
    stoplist = out.parent / "stop.txt"
    stoplist.write_text("# project terms\nRegistry\nwarehouse\n", encoding="utf-8")
    return write_mini_config(out, stoplists=stoplist, auto_stop_df=0.5)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_artifacts_match_their_pinned_digests(case, tmp_path, write_mini_config):
    out = tmp_path / "out"
    config = _config(case, out, write_mini_config)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED[case]
    }
    assert digests == PINNED[case]
