"""Run every experiment config and print the summary lines.

Usage: python3 scripts/run_all.py [--out DIR] [--only NAME ...]

On one BLAS thread of a 2-core VM the full set takes about three minutes,
two and a half of them in xray_limited; --only picks a subset by config
stem (cs_1d, denoise_2d, decompose_2d, dix_1d, dix_2d, xray_full,
xray_limited).
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tikhtv.cli import main as solve_main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument("--only", nargs="*", default=None,
                        help="config stems to run (default: all)")
    args = parser.parse_args()

    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        wanted = set(args.only)
        configs = [c for c in configs if c.stem in wanted]
        missing = wanted - {c.stem for c in configs}
        if missing:
            parser.error(f"no config for {sorted(missing)}")
    if not configs:
        parser.error("no configs found")

    out_root = Path(args.out)
    failures = 0
    for cfg in configs:
        out_dir = out_root / cfg.stem
        print(f"=== {cfg.stem} -> {out_dir}")
        t0 = time.perf_counter()
        code = solve_main(["solve", str(cfg), "--out", str(out_dir)])
        elapsed = time.perf_counter() - t0
        if code != 0:
            print(f"    exit code {code} after {elapsed:.0f}s")
            failures += 1
            continue
        for summary in sorted(out_dir.rglob("summary.txt")):
            rel = summary.parent.relative_to(out_dir)
            print(f"    {rel}: {summary.read_text().splitlines()[0]}")
        print(f"    done in {elapsed:.0f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
