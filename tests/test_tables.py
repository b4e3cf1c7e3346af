"""The nine bundled tables at small n, pinned to a checked-in CSV.

Every estimate is a deterministic function of (config, seed, n), whatever the
thread count, so every column that does not hold a time is compared exactly.
A change that moves an estimate on purpose regenerates the pinned file with

    PYTHONPATH=src python tests/test_tables.py

and logs the move in CHANGES.md.
"""

import csv
import json
import tempfile
from pathlib import Path

import pytest

from tailrisk.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PINNED = Path(__file__).with_name("data") / "tables_n4096.csv"
KEPT = ("rho", "u", "method", "estimate", "per_rep_std", "cv", "se_of_mean", "flags")


def table_rows(tmp: Path, threads: int) -> list[list[str]]:
    """``["table", *KEPT]`` and one row per CSV line of ``tailrisk run`` on
    every ``configs/tableK.json`` with n = 4096 and cmc_n = 40960."""
    rows = [["table", *KEPT]]
    for k in range(1, 10):
        cfg = json.loads((CONFIGS / f"table{k}.json").read_text())
        cfg.update(n=4096, cmc_n=40960, threads=threads)
        cfg_path, out_path = tmp / f"table{k}.json", tmp / f"table{k}.csv"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--format", "csv",
                     "--out", str(out_path)]) == 0
        with out_path.open(newline="") as f:
            rows += [[str(k), *(line[c] for c in KEPT)] for line in csv.DictReader(f)]
    return rows


@pytest.mark.parametrize("threads", [1, 2])
def test_tables_match_the_pinned_csv(tmp_path, threads):
    with PINNED.open(newline="") as f:
        assert table_rows(tmp_path, threads) == list(csv.reader(f))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = table_rows(Path(tmp), 1)
    with PINNED.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(pinned)
