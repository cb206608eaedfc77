"""Plain-text rendering of experiment results.

Produces the rows/series the paper's figures plot, as aligned text
tables — the CLI and the benchmark harness both print through here so
``repro-car fig7`` output can be compared side by side with the paper.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.ablation import (
    GreedyVsOptimalResult,
    OversubscriptionPoint,
    TrafficAblationResult,
)
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Result
from repro.experiments.fig9 import Fig9Result
from repro.experiments.fig10 import Fig10Result
from repro.experiments.regen import RegenResult
from repro.obs.report import format_table

__all__ = [
    "format_table",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_fig10",
    "render_regen",
    "render_traffic_ablation",
    "render_oversubscription",
    "render_greedy_vs_optimal",
]


def render_fig7(results: Sequence[Fig7Result]) -> str:
    """Figure 7 panels as one table (traffic in MB)."""
    rows = []
    for res in results:
        for x in res.series["CAR"].xs:
            car_mean, _ = res.series["CAR"].point(x)
            rr_mean, _ = res.series["RR"].point(x)
            saving = res.savings[int(x * (1 << 20))]
            rows.append(
                [
                    res.config.name,
                    f"{x:.0f}MB",
                    f"{car_mean:.1f}",
                    f"{rr_mean:.1f}",
                    f"{saving * 100:.1f}%",
                ]
            )
    return "Figure 7 - cross-rack repair traffic (MB)\n" + format_table(
        ["CFS", "chunk", "CAR", "RR", "saving"], rows
    )


def render_fig8(results: Sequence[Fig8Result]) -> str:
    """Figure 8 panels as one table (λ at iteration checkpoints)."""
    rows = []
    for res in results:
        for i, x in enumerate(res.balanced.xs):
            rows.append(
                [
                    res.config.name,
                    int(x),
                    f"{res.balanced.means[i]:.3f} ± {res.balanced.stds[i]:.3f}",
                    f"{res.unbalanced.means[i]:.3f} ± {res.unbalanced.stds[i]:.3f}",
                ]
            )
    return (
        "Figure 8 - load balancing rate vs iteration steps\n"
        + format_table(
            ["CFS", "iters", "with balancing", "without balancing"], rows
        )
    )


def render_fig9(results: Sequence[Fig9Result]) -> str:
    """Figure 9 panels as one table (seconds per lost chunk)."""
    rows = []
    for res in results:
        for x in res.series["CAR"].xs:
            car_mean, _ = res.series["CAR"].point(x)
            rr_mean, _ = res.series["RR"].point(x)
            saving = res.savings[int(x * (1 << 20))]
            rows.append(
                [
                    res.config.name,
                    f"{x:.0f}MB",
                    f"{car_mean:.3f}s",
                    f"{rr_mean:.3f}s",
                    f"{saving * 100:.1f}%",
                ]
            )
    return "Figure 9 - recovery time per lost chunk\n" + format_table(
        ["CFS", "chunk", "CAR", "RR", "saving"], rows
    )


def render_fig10(result: Fig10Result) -> str:
    """Figure 10, both panels, as two tables."""
    rows_a = [
        [
            r.config_name,
            r.strategy,
            f"{r.transmission_ratio * 100:.1f}%",
            f"{r.computation_ratio * 100:.1f}%",
        ]
        for r in result.rows
    ]
    rows_b = [
        [name, f"{ratio:.3f}"]
        for name, ratio in result.normalized_computation.items()
    ]
    return (
        "Figure 10(a) - transmission vs computation time ratio (8MB)\n"
        + format_table(["CFS", "strategy", "transmission", "computation"], rows_a)
        + "\n\nFigure 10(b) - CAR computation time normalised to RR\n"
        + format_table(["CFS", "CAR/RR"], rows_b)
    )


def render_regen(results: Sequence[RegenResult]) -> str:
    """The regenerating-code sweep as one table (4 MB chunks)."""
    rows = []
    for res in results:
        for name in ("CAR", "RR", "RackMSR", "Piggyback"):
            o = res.outcomes[name]
            mean_units, std_units = o.per_stripe_units
            lam_mean, lam_std = o.lambda_stats
            rows.append(
                [
                    res.config.name,
                    name,
                    o.placement,
                    f"{mean_units:.2f} ± {std_units:.2f}",
                    f"{o.bound:.2f}",
                    f"{lam_mean:.3f} ± {lam_std:.3f}",
                    f"{o.series.means[0]:.1f}",
                    str(o.violations),
                ]
            )
    return (
        "Regenerating codes - per-stripe cross-rack repair cost vs "
        "analytic bounds\n"
        + format_table(
            ["CFS", "strategy", "placement", "chunk units", "bound",
             "lambda", "MB @4MB", "violations"],
            rows,
        )
    )


def render_traffic_ablation(results: Sequence[TrafficAblationResult]) -> str:
    """The traffic-decomposition ablation as a table."""
    rows = []
    for res in results:
        for name, chunks in res.traffic.items():
            saving = "" if name == "RR" else f"{res.saving_over_rr(name) * 100:.1f}%"
            rows.append([res.config_name, name, f"{chunks:.1f}", saving])
    return (
        "Ablation - cross-rack traffic decomposition (chunk units)\n"
        + format_table(["CFS", "strategy", "chunks", "saving vs RR"], rows)
    )


def render_oversubscription(
    config_name: str, points: Sequence[OversubscriptionPoint]
) -> str:
    """The over-subscription sweep as a table."""
    rows = [
        [
            f"{p.oversubscription:.0f}:1",
            f"{p.car_time_per_chunk:.3f}s",
            f"{p.rr_time_per_chunk:.3f}s",
            f"{p.saving * 100:.1f}%",
        ]
        for p in points
    ]
    return (
        f"Ablation - recovery time vs core over-subscription ({config_name})\n"
        + format_table(["oversub", "CAR", "RR", "saving"], rows)
    )


def render_greedy_vs_optimal(results: Sequence[GreedyVsOptimalResult]) -> str:
    """The greedy-vs-enumeration comparison as a table."""
    rows = []
    for res in results:
        g_mean = sum(res.greedy_lambdas) / len(res.greedy_lambdas)
        o_mean = sum(res.optimal_lambdas) / len(res.optimal_lambdas)
        rows.append(
            [res.config_name, f"{g_mean:.3f}", f"{o_mean:.3f}", f"{res.mean_gap:.3f}"]
        )
    return (
        "Ablation - greedy (Algorithm 2) vs enumerated optimal lambda\n"
        + format_table(["CFS", "greedy", "optimal", "mean gap"], rows)
    )
