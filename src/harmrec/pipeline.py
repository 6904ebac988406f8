"""End-to-end experiment orchestration behind the CLI subcommands.

``run_experiment`` produces one reconstruction with its full artifact bundle;
``run_tau`` emits exponent-field artifacts for a list of measurement-side
sets; ``run_sweep`` reuses one assembled system across a noise-level/seed
grid and fits per-probe decay rates.  A sweep draws its noise once and
scales it per level into one batch of (seeds, m) data, with no per-seed
record; ``run_experiment`` is a sweep level of one seed, whose ``add_noise``
draws and scales alike.  Both fit through ``reconstruct`` and
``tikhonov.reconstruct_field``.  A sweep level's fields are one (seeds, ny,
nx) array from their solve to their errors, turned into the errors in place
and dropped before the next level is fitted.

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
from .errors import SolverError, ValidationError
# perfbench/spans.py wraps `pipeline.add_noise` and `pipeline.reconstruct` by name.
from .forward import (CauchyData, NoisyBatch, add_noise, draw_noise, noisy_batch,
                      sample_exact, trace_cauchy)
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
    """Write an exponent field's CSV, contour JSON and heatmap SVG under
    ``stem``; returns their file names."""
    names = [f"{stem}.csv", f"{stem}_contour.json", f"{stem}.svg"]
    hio.write_field_csv(out / names[0], tau)
    hio.dump_json(out / names[1], None,
                  hio.contour_json_text(contour.level, contour.polylines, names[1]))
    svg.render_heatmap(tau, out / names[2], contours=contour, title=title)
    return names


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """One reconstruction; writes the artifact bundle when out_dir is given.

    Returns the summary and the run's pieces, among them ``result``, the fit
    as a batch of one, and ``u_star``, its row 0's field as a :class:`ScalarField`.
    """
    state = build_state(cfg)
    level = cfg["noise_level"]
    data, = add_noise(state.clean_data, level, [cfg["seed"]], cfg["noise_model"])
    result = reconstruct(state.system, NoisyBatch(level, data.f[None], data.g[None]), cfg)
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
        "noise": {
            "level": data.noise_level,
            "seed": data.seed,
            "model": data.noise_model,
            "realized_eps": data.realized_eps,
        },
        "error": {
            "max": float(err.values.max()),
            "median": float(np.median(err.values)),
            "mean": float(err.values.mean()),
            "sup_exact": sup_exact,
        },
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
        hio.write_field_csv(out / "u_star.csv", u_star)
        hio.write_field_csv(out / "error.csv", err)
        hio.write_field_csv(out / "exact.csv", exact_field)
        _write_tau(out, "tau", state.tau, contour, "reliability exponent")
        hio.write_vector_csv(out / "b.csv", b)
        hio.write_cauchy_csv(out / "cauchy.csv", data, out / "cauchy.json")
        svg.render_heatmap(exact_field, out / "exact.svg", title="exact solution")
        svg.render_heatmap(u_star, out / "u_star.svg", title="reconstruction")
        svg.render_heatmap(err, out / "error.svg", contours=contour,
                           title="absolute error")
        hio.dump_json(out / "summary.json", summary, summary_text)

    return {
        "summary": summary,
        "state": state,
        "result": result,
        "u_star": u_star,
        "error_field": err,
        "exact_field": exact_field,
        "region_mask": mask,
        "contour": contour,
        "data": data,
    }


def run_tau(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Exponent-field artifacts for every configured measurement-side set."""
    grid = build_grid(cfg.rect, cfg["h"])
    panels = []
    out = None if out_dir is None else hio.out_dir(out_dir)
    ci, cj = grid.nearest_node(0.5 * (cfg.rect.x0 + cfg.rect.x1),
                               0.5 * (cfg.rect.y0 + cfg.rect.y1))
    for sides in cfg["tau_gamma_sets"]:
        partition = boundary_partition(grid, sides)
        tau = compute_indicate(partition)
        _, contour = reliable_region(tau, cfg["threshold"])
        tag = "-".join(sorted(sides))
        panel = {
            "sides": sorted(sides),
            "tau_center": float(tau.values[cj, ci]),
            "n_polylines": len(contour.polylines),
        }
        if out is not None:
            panel["files"] = _write_tau(out, f"tau_{tag}", tau, contour,
                                        f"reliability exponent, measured: {tag}")
        panels.append(panel)
    summary = {"config": cfg.to_dict(), "panels": panels}
    if out is not None:
        hio.dump_json(out / "tau_summary.json", summary)
    return summary


def run_sweep(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Noise-level/seed sweep reusing one assembled system.

    Probes are auto-selected to span the certified exponent band (see
    evaluate.auto_probe_nodes).  Per probe: mean error across seeds at each
    level, then the log-log decay slope.  Also reports the rank correlation
    between slope and the exponent value over probes with exponent in
    [0.3, 0.9], the fitted envelope constant per (level, seed), and the
    penalty-norm trend across levels.
    """
    levels = list(cfg["eps_levels"])
    seeds = list(cfg["seeds"])
    if len(levels) < 3:
        raise ValidationError("sweep needs at least 3 eps levels")
    ev.check_level_span(levels)
    check_sweep_size(cfg)
    state = build_state(cfg)
    g = state.grid
    t = state.tau.values

    probe_nodes = ev.auto_probe_nodes(state.tau)
    pi, pj = np.array(probe_nodes).T

    # The fields of all seeds of a level are one (seeds, ny, nx) array,
    # which becomes their error fields in place.
    exact_values = sample_exact(cfg.exact_solution(), g).values
    err_by_level = {lv: np.zeros(len(probe_nodes)) for lv in levels}
    c_fits = []
    reg_norms = {}
    draws = draw_noise(seeds, state.partition.m, cfg["noise_model"])
    for lv in levels:
        result = reconstruct(state.system, noisy_batch(state.clean_data, lv, draws), cfg)
        reg_norms[lv] = result.reg_norm.tolist()
        err = tikhonov.reconstruct_field(result.w, state.system)
        err -= exact_values
        np.abs(err, out=err)
        for vals in err[:, pj, pi]:  # seed by seed: a mean() would round differently
            err_by_level[lv] += vals / len(seeds)
        if 0.0 < lv < 1.0:
            c_fit = ev.envelope_c_fit(err, t, lv)
            c_fits += [{"eps": lv, "seed": seed, "c_fit": c}
                       for seed, c in zip(seeds, c_fit.tolist())]
        del result, err  # the next level's fit starts without this level's stack

    probes = []
    for k, (i, j) in enumerate(probe_nodes):
        pairs = [(lv, max(err_by_level[lv][k], 1e-300)) for lv in levels]
        slope = ev.rate_fit(pairs)
        probes.append({
            "x": float(g.xs[i]), "y": float(g.ys[j]),
            "tau": float(t[j, i]),
            "err": float(err_by_level[levels[-1]][k]),
            "slope": slope,
        })

    in_range = [p for p in probes if 0.3 <= p["tau"] <= 0.9]
    slopes = [p["slope"] for p in in_range]
    taus = [p["tau"] for p in in_range]
    # A rank correlation needs two distinct values on each side: null when
    # fewer than two probes are in range or either side is constant.
    spearman = None
    if len(set(slopes)) > 1 and len(set(taus)) > 1:
        spearman = ev.spearman_rank(slopes, taus)
    target = min(probes, key=lambda p: abs(p["tau"] - 0.7))

    mean_reg = [float(np.mean(reg_norms[lv])) for lv in levels]
    if min(mean_reg) <= 0.0:
        raise SolverError(
            "the penalty norm is zero at some noise level, so its log-slope "
            f"is undefined (mean penalty norm by level: {mean_reg})")
    reg_slope = float(np.polyfit(np.log(levels), np.log(mean_reg), 1)[0])

    summary = {
        "config": cfg.to_dict(),
        "probes": probes,
        "probes_in_range": len(in_range),
        "spearman_slope_tau": spearman,
        "probe_near_07": target,
        "envelope_c_fits": c_fits,
        "reg_norm_by_level": {repr(lv): mean_reg[k] for k, lv in enumerate(levels)},
        "reg_norm_log_slope": reg_slope,
    }
    if out_dir is not None:
        sweep_text = hio.json_text(summary, "sweep.json")  # probes.csv holds the same values
        out = hio.out_dir(out_dir)
        cols = ("x", "y", "tau", "err", "slope")
        hio.write_table_csv(out / "probes.csv", cols, [[p[k] for k in cols] for p in probes])
        hio.dump_json(out / "sweep.json", summary, sweep_text)
    return summary
