#!/usr/bin/env python3
"""Record the reference outputs of the five bundled configs.

    python3 perfbench/record_reference.py

Solves each config in perfbench/configs/ with the checkout's CLI and copies
summary.json and menu.csv to perfbench/reference/.  The gate compares later
runs against these files, so record them only from a commit whose outputs
are the accepted baseline.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from remenu import cli  # noqa: E402


def main() -> int:
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for cfg in sorted((HERE / "configs").glob("*.json")):
            work = Path(tmp) / cfg.stem
            if cli.main(["solve", "--config", str(cfg), "--out", str(work)]) != 0:
                return 1
            shutil.copyfile(work / "summary.json", out_dir / f"{cfg.stem}.summary.json")
            shutil.copyfile(work / "menu.csv", out_dir / f"{cfg.stem}.menu.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
