"""E16-P — pipeline timing model: CPI, stall anatomy, branch predictors.

The paper argues RISC I's single-cycle, register-to-register core keeps
the pipeline short and its hazards cheap.  This experiment runs the
benchmark suite through the :mod:`repro.uarch` 5-stage cost model and
reports, for both machines:

* CPI under the standard sweep — three branch predictors at full
  bypassing, then the degraded forwarding matrices under the base
  predictor (one architectural run per workload per machine, shared
  with E10 through :func:`repro.experiments.common.pipelined`);
* the stall-cycle anatomy at the base configuration (``bht2/full``):
  RAW, load-use, control, window-handler and structural bubbles as a
  fraction of model cycles, plus predictor accuracy and delay-slot fill.

Two findings worth looking for in the output: RISC I's 2-cycle loads
mean full bypassing leaves *zero* load-use bubbles (the load-delay slot
the paper never needed), and ``towers`` is a textbook 2-bit-counter
pathology — its single conditional branch (the Hanoi base-case test)
alternates almost perfectly, so the BHT does worse than always-not-taken
there while winning on the suite aggregate.
"""

from __future__ import annotations

from repro.analysis.report import Table, geometric_mean
from repro.experiments import common
from repro.uarch import UarchConfig
from repro.workloads import BENCHMARK_SUITE

_BASE = UarchConfig().label


def _cpi_table(target: str, title: str, scale: str) -> Table:
    table = Table(
        title=title,
        headers=["program"] + list(common.PIPELINE_SWEEP) + ["bht2 acc %"],
    )
    columns: dict[str, list[float]] = {label: [] for label in common.PIPELINE_SWEEP}
    for name in BENCHMARK_SUITE:
        stats = common.pipelined(name, target, scale)
        for label in common.PIPELINE_SWEEP:
            columns[label].append(stats[label].cpi)
        table.add_row(
            name,
            *(stats[label].cpi for label in common.PIPELINE_SWEEP),
            100.0 * stats[_BASE].predictor_accuracy,
        )
    table.add_row(
        "geometric mean",
        *(geometric_mean(columns[label]) for label in common.PIPELINE_SWEEP),
        "",
    )
    return table


def _stall_table(scale: str) -> Table:
    table = Table(
        title=f"E16-P: stall anatomy at {_BASE} (% of model cycles)",
        headers=[
            "program",
            "machine",
            "cpi",
            "raw %",
            "load-use %",
            "control %",
            "window %",
            "structural %",
            "pred acc %",
            "slot fill %",
        ],
    )
    for name in BENCHMARK_SUITE:
        for target, machine in (("risc1", "RISC I"), ("cisc", "VAX-like")):
            stats = common.pipelined(name, target, scale)[_BASE]
            breakdown = stats.stall_breakdown()
            pct = {
                kind: 100.0 * cycles / stats.cycles
                for kind, cycles in breakdown.items()
            }
            table.add_row(
                name,
                machine,
                stats.cpi,
                pct["raw"],
                pct["load_use"],
                pct["control"],
                pct["window"],
                pct["structural"],
                100.0 * stats.predictor_accuracy,
                100.0 * stats.slot_fill_rate if target == "risc1" else "",
            )
    table.add_note(
        "RISC I structural stalls are the 2nd memory-port cycle of "
        "loads/stores; VAX-like ones are its multi-cycle instructions "
        "occupying EX.  window % is the RISC I spill/fill handler drain."
    )
    return table


def run(scale: str = "default") -> list[Table]:
    risc = _cpi_table(
        "risc1",
        "E16-P: pipeline CPI — RISC I (predictor / forwarding sweep)",
        scale,
    )
    risc.add_note(
        "full bypassing + 2-cycle loads leaves no load-use bubbles: the "
        "paper's memory access already covers the MEM->EX latency"
    )
    risc.add_note(
        "towers alternates its one hot branch (Hanoi base-case test), the "
        "2-bit counter's worst case — the BHT wins on the suite aggregate"
    )
    vax = _cpi_table(
        "cisc",
        "E16-P: pipeline CPI — VAX-like (predictor / forwarding sweep)",
        scale,
    )
    vax.add_note(
        "CPI here is dominated by multi-cycle instructions occupying EX "
        "(structural), so forwarding and prediction move it far less than "
        "on RISC I — the paper's argument for simple instructions"
    )
    return [risc, vax, _stall_table(scale)]
