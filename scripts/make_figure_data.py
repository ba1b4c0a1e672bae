#!/usr/bin/env python3
"""Regenerate the CSV data behind every comparison figure.

Writes one file per preset into the output directory (default ./figure_data).
Presets on the same grid (fig5 and fig7) are swept once.
"""

import argparse
import pathlib
import sys
import time

from repeaterscope import sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figure_data")
    parser.add_argument(
        "--presets",
        nargs="*",
        default=["fig3", "fig5", "fig6", "fig7", "fig8", "skr_curves"],
    )
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    swept = {}
    for name in args.presets:
        spec = sweep.figure_preset(name)
        t0 = time.perf_counter()
        if spec not in swept:
            swept[spec] = sweep.run_sweep(spec)
        rows = swept[spec]
        path = out_dir / f"{name}.csv"
        sweep.write_csv(rows, str(path))
        print(f"{name}: {len(rows)} rows -> {path} ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
