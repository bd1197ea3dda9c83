"""End-to-end survey walkthrough: fly, QC, grid, compare.

Runs the default simulated survey (4 lines x 500 m plus one tie) through
the whole pipeline, prints the per-stage verdicts, then digs into two of
the results: the post-turn pendulum ring-down against the closed-form
damped envelope, and how cell size changes the grayscale rendering.

Run:  python3 demos/full_survey.py [out_dir]
"""

import math
import sys

import numpy as np

from aerosurvey.pipeline import PipelineConfig, run_pipeline
from aerosurvey.suspension import SuspensionGeometry, simulate_survey


def print_stages(report):
    print(f"pipeline seed {report.seed}  config {report.config_sha256[:12]}")
    for stage in report.stages:
        verdict = "pass" if stage.passed else "FAIL"
        keys = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in list(stage.stats.items())[:3])
        print(f"  {stage.name:<12} {verdict}  {keys}")
    print(f"overall: {'pass' if report.overall_pass else 'FAIL'}")


def ring_down_check(result):
    """Measured swing decay per half period vs the analytic factor."""
    zeta = result.effective_damping_ratio
    omega = math.sqrt(9.80665 / SuspensionGeometry().cable_length)
    expected = math.exp(-zeta * omega * math.pi
                        / (omega * math.sqrt(1.0 - zeta ** 2)))
    att = result.attitude
    codes, texts = att.segment
    is_turn = np.isin(codes, [i for i, s in enumerate(texts) if s == "turn"])
    ends = np.nonzero(is_turn[:-1] & ~is_turn[1:])[0]
    print(f"\nring-down after {len(ends)} turns "
          f"(analytic peak ratio {expected:.4f}):")
    for e in ends:
        later = np.nonzero(is_turn[e + 1:])[0]
        stop = e + 1 + (later[0] if len(later) else len(att.swing_deg) - e - 1)
        w = np.abs(att.swing_deg[e + 1:stop])
        pk = np.nonzero((w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:]))[0] + 1
        amps = w[pk][w[pk] >= 0.5]
        ratios = " ".join(f"{r:.4f}" for r in amps[1:] / amps[:-1])
        print(f"  turn ending t={att.t[e]:7.1f} s: peaks "
              f"{np.array2string(amps, precision=2)} -> ratio {ratios}")


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "pipeline_out"
    report = run_pipeline(PipelineConfig(out_dir=out_dir))
    print_stages(report)

    # the seed pins everything, so re-simulating reproduces the flight
    result = simulate_survey()
    ring_down_check(result)

    by_name = {s.name: s for s in report.stages}
    gm = by_name["grid_make"].stats
    gc = by_name["grid_compare"].stats
    print(f"\ngrids: fine {gm['fine_shape']} vs coarse {gm['coarse_shape']}")
    print(f"grayscale spread fine {gc['stddev_fine']:.2f} "
          f"vs coarse {gc['stddev_coarse']:.2f} (delta {gc['delta']:.2f})")
    if gc["delta"] < 0:
        # each grid is stretched to its own range; with this few coarse
        # pixels the stretch dominates, so read the delta as a rendering
        # note, not a data-quality verdict
        print("  (coarse grid has too few pixels for the spread to mean "
              "much; see tmi_fine.pgm vs tmi_coarse.pgm)")
    print(f"artifacts under {out_dir}/")


if __name__ == "__main__":
    main()
