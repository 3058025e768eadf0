"""Regenerate ``var_reference.json``, the statistical reference of the var-* gate.

For each of REFERENCE_SEEDS the packaged example study runs with the same
seed derivation as the benchmark; per (family, n, d, tau, alpha) cell the
reference keeps the mean of the Huber centers over the seeds and the median
over seeds of the MAD of the replications.  Run from the repository root:

    python3 perfbench/make_var_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from mcgrid import analysis, executor, var_copula  # noqa: E402
from perfbench import workloads  # noqa: E402

REFERENCE_SEEDS = range(1001, 1013)
TOLERANCE_MAD = 1.5        # per cell; seeds 1-15 reached 0.76
RMS_TOLERANCE_MAD = 0.45   # over all cells; seeds 1-12 reached 0.29, a 10% kernel error 0.55


def main() -> int:
    w = workloads.WORKLOADS["var-procs"]
    centers, mads = [], []
    for seed in REFERENCE_SEEDS:
        decl = workloads.declare(w, seed)
        store = executor.run_study(decl.vl, var_copula.do_one_var, seed=decl.seed,
                                   backend=decl.backend)
        values = analysis.get_array(store, "value")
        centers.append(analysis.collapse(values, decl.vl.n_sim_name, var_copula.huber_mean))
        mads.append(analysis.collapse(values, decl.vl.n_sim_name, var_copula.mad))
        print(f"seed {seed} done", file=sys.stderr)
    dims = centers[0].dims
    center = np.mean([c.data for c in centers], axis=0)
    mad = np.median([m.data for m in mads], axis=0)
    cells = []
    for idx in np.ndindex(center.shape):
        cell = {name: labels[i] for (name, labels), i in zip(dims, idx)}
        cell.update(center=float(center[idx]), mad=float(mad[idx]))
        cells.append(cell)
    head = {"seeds": list(REFERENCE_SEEDS), "tolerance_mad": TOLERANCE_MAD,
            "rms_tolerance_mad": RMS_TOLERANCE_MAD}
    text = (json.dumps(head)[:-1] + ', "cells": [\n'
            + ",\n".join(json.dumps(c) for c in cells) + "\n]}\n")
    out = Path(__file__).resolve().parent / "var_reference.json"
    out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
