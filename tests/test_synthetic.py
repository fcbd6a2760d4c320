"""The synthetic CSV writer against the per-cell writer it replaced."""

from __future__ import annotations

import numpy as np
import pytest

from factorlab.synthetic import GeneratorConfig, generate, generate_synthetic

from .conftest import ORACLE_CONFIG


def _fmt(value: float) -> str:
    return "" if np.isnan(value) else repr(float(value))


def reference_texts(config: GeneratorConfig) -> tuple[str, str]:
    """monthly.csv and annual.csv as the old writer built them, one cell at a time."""
    data = generate(config)
    lines = ["date,asset_id,ret,cap,capco,exchange_nyse"]
    for m, period in enumerate(data.periods):
        for j, asset in enumerate(data.assets):
            lines.append(
                f"{period},{asset},{_fmt(data.observed_returns[m, j])},"
                f"{_fmt(data.cap[m, j])},{_fmt(data.capco[m, j])},{int(data.nyse[j])}"
            )
    monthly = "\n".join(lines) + "\n"
    lines = ["fiscal_end,asset_id,seq,pstkrv,pstkl,pstk"]
    for period, asset, seq, pstkrv, pstkl, pstk in data.annual_rows:
        lines.append(
            f"{period},{asset},{_fmt(seq)},{_fmt(pstkrv)},{_fmt(pstkl)},{_fmt(pstk)}"
        )
    return monthly, "\n".join(lines) + "\n"


@pytest.mark.parametrize("config", [
    ORACLE_CONFIG,
    GeneratorConfig(seed=7, n_assets=12, n_months=30, mom_spread=0.01,
                    mom_spread_small_only=True, missing_ret_rate=0.3,
                    missing_fundamental_rate=0.5),
    GeneratorConfig(seed=3, n_assets=4, n_months=1),  # no fiscal year end: no annual rows
], ids=["oracle", "sparse", "one_month"])
def test_writer_matches_the_per_cell_reference(tmp_path, config):
    monthly_path, annual_path = generate_synthetic(config, tmp_path)
    monthly, annual = reference_texts(config)
    assert monthly_path.read_text() == monthly
    assert annual_path.read_text() == annual
