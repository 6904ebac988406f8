"""End-to-end experiment orchestration behind the CLI subcommands.

``run_experiment`` produces one reconstruction with its full artifact bundle;
``run_tau`` emits exponent-field artifacts for a list of measurement-side
sets; ``run_sweep`` reuses one assembled system across a noise-level/seed
grid and fits per-probe decay rates.  A sweep draws its noise once and
``add_noise`` scales it per level into one batch of (seeds, m) data;
``run_experiment`` is a sweep level of one seed, with the same calls.  Both
fit through ``reconstruct`` and ``tikhonov.reconstruct_field``.  A sweep's
fields are one (seeds, ny, nx) array, allocated once per sweep: each level
solves its fields into it and turns them into their errors in place, and the
next level overwrites it.  What a level keeps goes into (level, seed) arrays:
its probes' errors, its penalty norms and its envelope constants; the report
is built from them after the last level.

Only ``run_experiment``'s writer builds the hats, and it reads their
coefficients ``b.csv`` off u* (:func:`basis.coefficients`): no command
samples the hats' traces V.

All artifacts are deterministic functions of the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evaluate as ev
from . import io as hio
# Fields go through `tikhonov.reconstruct_field`: perfbench/spans.py wraps it in place.
from . import svg, tikhonov
from .basis import build_basis, coefficients
# Not called here: perfbench/spans.py wraps `pipeline.compute_base_solutions` by name.
from .basis import compute_base_solutions  # noqa: F401
from .config import ExperimentConfig, check_stacked_size, check_sweep_size
from .errors import SolverError
# perfbench/spans.py wraps `pipeline.add_noise` and `pipeline.reconstruct` by name.
from .forward import (CauchyData, add_noise, draw_noise, realized_eps, sample_exact,
                      trace_cauchy)
from .grid import BoundaryPartition, Grid2D, boundary_partition, build_grid
from .measure import compute_indicate, reliable_region
from .poisson import ScalarField
from .tikhonov import DiscreteSystem, assemble_system, reconstruct


@dataclass
class PipelineState:
    """Heavy shared objects, built once per configuration geometry."""

    cfg: ExperimentConfig
    grid: Grid2D
    partition: BoundaryPartition
    system: DiscreteSystem
    tau: ScalarField
    clean_data: CauchyData


def build_state(cfg: ExperimentConfig) -> PipelineState:
    check_stacked_size(cfg)
    grid = build_grid(cfg.rect, cfg["h"])
    partition = boundary_partition(grid, cfg["gamma_sides"])
    system = assemble_system(partition)
    tau = compute_indicate(partition)
    clean = trace_cauchy(cfg.exact_solution(), partition)
    return PipelineState(cfg=cfg, grid=grid, partition=partition,
                         system=system, tau=tau, clean_data=clean)


def _write_tau(out, stem: str, tau: ScalarField, contour, title: str) -> list[str]:
    """Write an exponent field's contour JSON and heatmap SVG under ``stem``;
    returns their file names after that of its CSV, which the caller writes."""
    names = [f"{stem}.csv", f"{stem}_contour.json", f"{stem}.svg"]
    hio.dump_json(out / names[1], None,
                  hio.contour_json_text(contour.level, contour.polylines, names[1]))
    svg.render_heatmap(tau, out / names[2], contours=contour, title=title)
    return names


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """One reconstruction; writes the artifact bundle when out_dir is given.

    Returns ``summary``, ``state``, ``result`` (the fit as a batch of one),
    ``u_star`` (its row 0's field as a :class:`ScalarField`) and ``error_field``.
    """
    state = build_state(cfg)
    level, seed, model = cfg["noise_level"], cfg["seed"], cfg["noise_model"]
    # level 0 draws nothing, but the seed and the model are checked
    draws = draw_noise([seed], state.partition.m if level else 0, model)
    data = add_noise(state.clean_data, level, draws)
    eps, = realized_eps(state.partition, state.clean_data, level, draws).tolist()
    result = reconstruct(state.system, data, cfg)
    u_star = ScalarField(state.grid, tikhonov.reconstruct_field(result.w, state.system)[0])
    exact_field = sample_exact(cfg.exact_solution(), state.grid)
    err = ev.pointwise_error(u_star, exact_field)
    mask, contour = reliable_region(state.tau, cfg["threshold"])
    region = ev.reliability_summary(err, state.tau, cfg["threshold"])
    sup_exact = float(np.abs(exact_field.values).max())

    envelope = ev.envelope_check(err, state.tau, level) if 0.0 < level < 1.0 else None

    ci, cj = state.grid.nearest_node(
        0.5 * (cfg.rect.x0 + cfg.rect.x1), 0.5 * (cfg.rect.y0 + cfg.rect.y1))
    summary = {
        "config": cfg.to_dict(),
        "grid": {"nx": state.grid.nx, "ny": state.grid.ny, "h": state.grid.h},
        "m": state.partition.m,
        "alpha_used": result.alpha_used,
        "condition_estimate": result.condition_estimate,
        "residual_f": float(result.residual_f[0]),
        "residual_g": float(result.residual_g[0]),
        "reg_norm": float(result.reg_norm[0]),
        "noise": {"level": data.level, "seed": seed, "model": model, "realized_eps": eps},
        "error": {**ev.error_stats(err.values), "sup_exact": sup_exact},
        "tau_center": float(state.tau.values[cj, ci]),
        "reliable_fraction": float(mask.mean()),
        "reliability": region,
        "envelope": envelope,
    }

    if out_dir is not None:
        # A numerical failure must leave no partial bundle behind.  Fields
        # are finite by construction (ScalarField); vectors are not.
        summary_text = hio.json_text(summary, "summary.json")
        b = coefficients(build_basis(state.grid), u_star)
        if not all(np.isfinite(v).all() for v in (b, data.f, data.g)):
            raise SolverError("non-finite coefficients or boundary data")
        out = hio.out_dir(out_dir)
        names = ("u_star.csv", "error.csv", "exact.csv", "tau.csv")
        hio.write_field_csvs([out / n for n in names], [u_star, err, exact_field, state.tau])
        _write_tau(out, "tau", state.tau, contour, "reliability exponent")
        hio.write_vector_csv(out / "b.csv", b)
        sidecar = {"noise_level": data.level, "seed": seed, "model": model, "realized_eps": eps}
        hio.write_cauchy_csv(out / "cauchy.csv", state.clean_data.points, data.f[0],
                             data.g[0], out / "cauchy.json", sidecar)
        svg.render_heatmap(exact_field, out / "exact.svg", title="exact solution")
        svg.render_heatmap(u_star, out / "u_star.svg", title="reconstruction")
        svg.render_heatmap(err, out / "error.svg", contours=contour,
                           title="absolute error")
        hio.dump_json(out / "summary.json", summary, summary_text)

    return {"summary": summary, "state": state, "result": result, "u_star": u_star,
            "error_field": err}


def run_tau(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Exponent-field artifacts for every configured measurement-side set."""
    grid = build_grid(cfg.rect, cfg["h"])
    panels, fields = [], []
    out = None if out_dir is None else hio.out_dir(out_dir)
    ci, cj = grid.nearest_node(0.5 * (cfg.rect.x0 + cfg.rect.x1),
                               0.5 * (cfg.rect.y0 + cfg.rect.y1))
    for sides in cfg["tau_gamma_sets"]:
        tau = compute_indicate(boundary_partition(grid, sides))
        _, contour = reliable_region(tau, cfg["threshold"])
        fields.append(("-".join(sorted(sides)), tau, contour))
        panels.append({"sides": sorted(sides), "tau_center": float(tau.values[cj, ci]),
                       "n_polylines": len(contour.polylines)})
    summary = {"config": cfg.to_dict(), "panels": panels}
    if out is not None:
        hio.write_field_csvs([out / f"tau_{tag}.csv" for tag, _, _ in fields],
                             [tau for _, tau, _ in fields])
        for panel, (tag, tau, contour) in zip(panels, fields):
            panel["files"] = _write_tau(out, f"tau_{tag}", tau, contour,
                                        f"reliability exponent, measured: {tag}")
        hio.dump_json(out / "tau_summary.json", summary)
    return summary


def run_sweep(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Noise-level/seed sweep reusing one assembled system.

    Probes are auto-selected to span the certified exponent band (see
    evaluate.auto_probe_nodes).  Each level fills one row of the (level, seed)
    arrays of probe errors, penalty norms and envelope constants (NaN at a
    level outside (0, 1)).  One :func:`evaluate.rate_fit` call fits the log-log
    decay slope of every probe's mean error over seeds and of the mean penalty
    norm.  The probes form one (probes, 5) table, x, y, tau, err and slope,
    which ``probes.csv`` holds and ``sweep.json``'s probe reports are read
    from: the probes, the rank correlation between slope and exponent over the
    probes with exponent in [0.3, 0.9], and the probe nearest exponent 0.7.
    """
    levels = list(cfg["eps_levels"])
    seeds = list(cfg["seeds"])
    ev.check_levels(levels)
    check_sweep_size(cfg)
    state = build_state(cfg)
    g = state.grid
    t = state.tau.values

    pi, pj = np.array(ev.auto_probe_nodes(state.tau)).T

    # The fields of all seeds of a level are one (seeds, ny, nx) array,
    # which becomes their error fields in place.  Every level solves into
    # the same array, so no level allocates (and faults in) a stack afresh.
    exact_values = sample_exact(cfg.exact_solution(), g).values
    fields = np.empty((len(seeds),) + g.shape)
    probe_err = np.empty((len(levels), len(seeds), len(pi)))
    reg = np.empty((len(levels), len(seeds)))
    c_fit = np.full((len(levels), len(seeds)), np.nan)
    draws = draw_noise(seeds, state.partition.m, cfg["noise_model"])
    for k, lv in enumerate(levels):
        result = reconstruct(state.system, add_noise(state.clean_data, lv, draws), cfg)
        reg[k] = result.reg_norm
        err = tikhonov.reconstruct_field(result.w, state.system, out=fields)
        err -= exact_values
        np.abs(err, out=err)
        probe_err[k] = err[:, pj, pi]
        if 0.0 < lv < 1.0:
            c_fit[k] = ev.envelope_c_fit(err, t, lv)
    # seed by seed, in order: a mean() would round differently
    mean_err = np.add.accumulate(probe_err / len(seeds), axis=1)[:, -1]
    mean_reg = reg.mean(axis=1)
    if mean_reg.min() <= 0.0:
        raise SolverError(
            "the penalty norm is zero at some noise level, so its log-slope "
            f"is undefined (mean penalty norm by level: {mean_reg.tolist()})")
    *slopes, reg_slope = ev.rate_fit(
        levels, np.column_stack([np.maximum(mean_err, 1e-300), mean_reg])).tolist()

    cols = ("x", "y", "tau", "err", "slope")
    table = np.column_stack([g.xs[pi], g.ys[pj], t[pj, pi], mean_err[-1], slopes])
    probes = [dict(zip(cols, row)) for row in table.tolist()]
    band = (table[:, 2] >= 0.3) & (table[:, 2] <= 0.9)
    slope_in, tau_in = table[band, 4].tolist(), table[band, 2].tolist()
    # A rank correlation needs two distinct values on each side: null when
    # fewer than two probes are in range or either side is constant.
    spearman = None
    if len(set(slope_in)) > 1 and len(set(tau_in)) > 1:
        spearman = ev.spearman_rank(slope_in, tau_in)

    summary = {
        "config": cfg.to_dict(),
        "probes": probes,
        "probes_in_range": int(band.sum()),
        "spearman_slope_tau": spearman,
        "probe_near_07": probes[np.argmin(np.abs(table[:, 2] - 0.7))],
        "envelope_c_fits": [{"eps": lv, "seed": seed, "c_fit": c}
                            for lv, row in zip(levels, c_fit.tolist()) if 0.0 < lv < 1.0
                            for seed, c in zip(seeds, row)],
        "reg_norm_by_level": [{"eps": lv, "reg_norm": r}
                              for lv, r in zip(levels, mean_reg.tolist())],
        "reg_norm_log_slope": reg_slope,
    }
    if out_dir is not None:
        sweep_text = hio.json_text(summary, "sweep.json")
        out = hio.out_dir(out_dir)
        hio.write_table_csv(out / "probes.csv", cols, table)
        hio.dump_json(out / "sweep.json", summary, sweep_text)
    return summary
