"""Regenerate the stored reference values under perfbench/reference/.

    python3 perfbench/make_reference.py

Values come from refmodel (mpmath, independent of every abxs route). The
figure rows' inputs are read from the CSVs that ``abxs eval --fig N``
prints, so the reference follows the presets row by row; abxs supplies
only those inputs, never a value. ``reference/known_failures.json`` lists
measured seed failures, not reference values, and is kept by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import sys

import mpmath

import refmodel
import workloads

ROOT = os.path.dirname(workloads.HERE)

# QAM-16 coefficients {delta1, delta2_j}: 4 (1 - 1/4) / 4 and 3 (2j - 1)^2 / 30.
QAM16 = (0.75, (0.1, 0.9))


def _aber(law):
    return refmodel.aber(law, *QAM16)


def _figure_rows(fig: int):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from abxs import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(list(workloads.FIGURES[fig]["argv"])) != 0:
            raise RuntimeError(f"abxs eval --fig {fig} failed")
    lines = buf.getvalue().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _figure_value(job):
    fig, header, cells = job
    law, gamma = workloads.figure_law(fig, header, cells)
    kind = workloads.FIGURES[fig]["kind"]
    if kind == "pdf":
        return refmodel.snr_pdf(law, gamma)
    return _aber(law) if kind == "aber" else refmodel.capacity(law)


def _law_values(law):
    return {"law": list(law), "aber": _aber(law), "capacity": refmodel.capacity(law)}


def build(which: str, pool) -> dict:
    meta = {"generator": "perfbench/make_reference.py", "mpmath": mpmath.__version__,
            "dps": refmodel.DPS, "modulation": "qam16"}
    if which == "figures":
        out = {"meta": meta}
        for fig in sorted(workloads.FIGURES):
            header, rows = _figure_rows(fig)
            n_in = header.index("exact")
            values = pool.map(_figure_value, [(fig, header, r) for r in rows])
            out[str(fig)] = {"header": header,
                             "rows": [{"inputs": r[:n_in], "value": v}
                                      for r, v in zip(rows, values)]}
        return out
    laws = workloads.domain_laws() if which == "domain" else workloads.MONTECARLO_LAWS
    return {"meta": meta, "laws": pool.map(_law_values, laws, chunksize=1)}


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        for which in ("figures", "domain", "montecarlo"):
            data = build(which, pool)
            path = os.path.join(workloads.REFERENCE_DIR, f"{which}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=0)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
