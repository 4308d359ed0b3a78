#!/usr/bin/env python3
"""Sample tomography counts of the (optionally noisy) cluster and reconstruct.

Prints the headline fidelities and writes the full report as JSON.
"""

import argparse
import sys

from onewaysim.cli import emit_figure_data
from onewaysim.measure import RandomSource, pauli_settings, sample_counts
from onewaysim.noise import NoiseModel, calibrate, noisy_cluster
from onewaysim.tomo import reconstruct, report_to_json_dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="JSON path (default: stdout)")
    parser.add_argument("--shots", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calibrated", action="store_true")
    parser.add_argument("--storage-time", type=float, default=2.27)
    args = parser.parse_args()

    model = NoiseModel()
    if args.calibrated:
        result = calibrate()
        model = NoiseModel(result.prep, result.noise, args.storage_time)

    rng = RandomSource(args.seed)
    tables = sample_counts(noisy_cluster(model), pauli_settings(4), args.shots, rng)
    report = reconstruct(tables)
    print(f"fidelity vs ideal cluster: {report.fidelity_vs_C4:.4f} "
          f"({report.iterations_used} iterations, converged={report.converged})",
          file=sys.stderr)
    print(f"reduced fidelities: polarization {report.reduced_polarization_fidelity:.4f}, "
          f"spatial {report.reduced_spatial_fidelity:.4f}", file=sys.stderr)
    emit_figure_data(report_to_json_dict(report), "json", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
