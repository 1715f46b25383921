"""One workload process: `python3 child.py MODE CONFIG RESULT [--bogoliubov]`.

Runs with `PYTHONPATH=src` from the checkout root and writes one JSON object
to RESULT. MODE is

- `probe`: time `import sqcavity.cli` plus config resolution;
- `run`: the same, then time one `sqcavity.cli.main` call on CONFIG;
- `trace`: as `run`, with spans recorded around the calls into every
  layer. After the traced call, outside every span, each state
  `steady_state` returned is checked again against a freshly built
  generator and, with `--bogoliubov`, the lowest-r point is cross-checked
  against the squeezed-frame generator.

`probe` and `trace` also record the environment: core count, library
versions, BLAS and thread settings.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

RESIDUAL_TOL = 1e-8
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
MIN_EIG_TOL = -1e-8


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "SIM_THREADS": os.environ.get("SIM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def state_failures(states, config) -> list[str]:
    """Re-validate every solved state against a freshly built generator."""
    import numpy as np
    from sqcavity.liouvillian import build_liouvillian
    from checks import PN_TOL, squeezed_photon_numbers

    failures = []
    for recipe, rho in states:
        if recipe is None:
            failures.append("steady_state was given a generator not built by build_liouvillian")
            continue
        params, bath, space = recipe
        where = f"state at r = {bath.r!r}"
        m = rho.matrix
        residual = float(np.abs(build_liouvillian(params, bath, space).matrix
                                @ m.reshape(-1, order="F")).max())
        trace_err = abs(np.trace(m) - 1.0)
        herm_err = float(np.abs(m - m.conj().T).max())
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        for ok, what in ((residual <= RESIDUAL_TOL, f"residual {residual:.3e}"),
                         (trace_err <= TRACE_TOL, f"trace error {trace_err:.3e}"),
                         (herm_err <= HERM_TOL, f"hermiticity error {herm_err:.3e}"),
                         (min_eig >= MIN_EIG_TOL, f"minimum eigenvalue {min_eig:.3e}")):
            if not ok:
                failures.append(f"{where}: {what}")
        if not config.atom_present:
            pn = m.diagonal().real
            err = float(np.abs(pn - squeezed_photon_numbers(bath.r, pn.size)).max())
            if err > PN_TOL:
                failures.append(f"{where}: max |P(n) - P_exact(n)| = {err:.3e}")
    return failures


def bogoliubov_failures(config, states, workdir: Path) -> list[str]:
    """Cross-check the lowest-r point against the squeezed-frame generator."""
    from dataclasses import replace

    from sqcavity.observables import mean_photon_number
    from sqcavity.sweep import BOGOLIUBOV_TOL, run_bogoliubov_check

    r, rho = min(((recipe[1].r, rho) for recipe, rho in states if recipe),
                 key=lambda item: item[0])
    row, = run_bogoliubov_check(replace(config, mode="bogoliubov_check", r_values=(r,),
                                        output_path=str(workdir / "bogoliubov_check.csv")))
    failures = []
    if not row["passed"]:
        failures.append(f"bogoliubov check at r = {r!r}: discrepancy {row['discrepancy']:.3e}")
    gap = abs(mean_photon_number(rho) - row["mean_n_bog"])
    if gap >= BOGOLIUBOV_TOL:
        failures.append(f"bogoliubov check at r = {r!r}: sweep mean_n differs by {gap:.3e}")
    return failures


def main(argv) -> None:
    mode, config_path, result_path = argv[:3]
    cli_argv = ["--config", config_path]
    t0 = time.perf_counter()
    import sqcavity.cli as cli

    config = cli.resolve_config(cli.build_parser().parse_args(cli_argv))
    result = {"setup_s": time.perf_counter() - t0}
    if mode != "probe":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            recipes, states = {}, []

            def built(args, kwargs, L):
                recipes[id(L)] = args  # (params, bath, space)

            def solved(args, kwargs, rho):
                states.append((recipes.pop(id(args[0]), None), rho))

            tracer.observe("liouvillian.build_liouvillian", built)
            tracer.observe("solvers.steady_state", solved)
            tracer.install()
        t1 = time.perf_counter()
        result["exit_code"] = cli.main(cli_argv)
        result["run_s"] = time.perf_counter() - t1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            failures = state_failures(states, config)
            if "--bogoliubov" in argv and states:
                failures += bogoliubov_failures(config, states, Path(result_path).parent)
            result["check_failures"] = failures
    if mode != "run":
        result["environment"] = environment()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
