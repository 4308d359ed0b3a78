#!/usr/bin/env python3
"""Run the single-qubit rotation sweeps, noiseless and calibrated.

Writes one CSV per (mode, noise) combination into --out-dir and prints the
mean fidelity of each sweep.
"""

import argparse
import sys
from pathlib import Path

from onewaysim.cli import emit_figure_data
from onewaysim.mbqc import RotationRequest, sweep, sweep_to_csv_rows
from onewaysim.noise import NoiseModel, calibrate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--storage-time", type=float, default=2.27)
    args = parser.parse_args()
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)

    result = calibrate()
    model = NoiseModel(result.prep, result.noise, args.storage_time)
    templates = {
        "noiseless": RotationRequest(alpha=0.0, beta=0.0),
        "calibrated": RotationRequest(alpha=0.0, beta=0.0, noise=model),
    }
    for tag, template in templates.items():
        for mode in ("rx", "rz"):
            points = sweep(mode, template, noise_tag=tag)
            mean = sum(p.fidelity for p in points) / len(points)
            print(f"{mode} sweep [{tag}]: mean fidelity {mean:.4f}")
            path = str(Path(args.out_dir) / f"sweep_{mode}_{tag}.csv")
            emit_figure_data(sweep_to_csv_rows(points), "csv", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
