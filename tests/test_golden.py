"""Committed golden reports: the sweep and the hunt below must keep writing
exactly these bytes.

The sweep covers every chain and every lemma id at n = m = 3, so the
block terms reach Ky Fan k = 9, past k = 8 where numpy's summation turns
pairwise (at this seed the full-rank BlockNormal sums at k >= 8 differ
between the two summation orders), and it evaluates every norm kind.  The
hunt pins the search-result path of the writer: sampling, refinement and
the arg-min point's matrices.  A change that moves a byte must explain
the move and then regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib

from gmineq.hunt import SearchConfig, hunt
from gmineq.reports import write_reports
from gmineq.sweep import KNOWN_CHAINS, SweepConfig, run_sweep

GOLDEN = pathlib.Path(__file__).with_name("golden") / "sweep_n3_m3.jsonl"
CONFIG = dict(chains=list(KNOWN_CHAINS), n_values=[3], m_values=[3], instance_count=1,
              base_seed=2025, s_values=[2.0], t_values=[0.3],
              norms=["kyfan:all", "schatten:3", "schatten:inf", "operator", "trace", "frobenius"])
HUNT_GOLDEN = GOLDEN.with_name("hunt_seed2025.json")
HUNT_CONFIG = dict(base_seed=2025, samples=200, refine_steps=20, n_max=3, m_max=2)


def write_golden(path) -> None:
    write_reports(run_sweep(SweepConfig.from_dict(CONFIG)), path)


def write_hunt_golden(path) -> None:
    write_reports(hunt(SearchConfig(**HUNT_CONFIG)), path)


def test_sweep_writes_the_golden_bytes(tmp_path):
    out = tmp_path / "sweep.jsonl"
    write_golden(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_hunt_writes_the_golden_bytes(tmp_path):
    out = tmp_path / "hunt.json"
    write_hunt_golden(out)
    assert out.read_bytes() == HUNT_GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden(GOLDEN)
    write_hunt_golden(HUNT_GOLDEN)
