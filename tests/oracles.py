"""Independent straight-loop oracles used to check the panel engine.

Everything here works on plain dicts keyed by (month ordinal, asset) parsed
directly from the CSV files; no Panel, no registry, no numpy grids. The
percentile uses the project-wide convention (linear interpolation between
closest ranks) but is written as its own sort-and-interpolate routine.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations
from pathlib import Path


def month_key(period: str) -> int:
    year, month = period.split("-")
    return int(year) * 12 + int(month) - 1


def key_to_period(key: int) -> str:
    year, month = divmod(key, 12)
    return f"{year:04d}-{month + 1:02d}"


def pct_interpolate(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks on an ascending list."""
    m = len(sorted_values)
    rank = 1.0 + (m - 1) * pct / 100.0
    lo = math.floor(rank)
    if lo >= m:
        return sorted_values[-1]
    frac = rank - lo
    if frac == 0.0:
        return sorted_values[lo - 1]
    return sorted_values[lo - 1] + frac * (sorted_values[lo] - sorted_values[lo - 1])


# -- raw CSV parsing -------------------------------------------------------


def read_monthly(path) -> dict:
    """Monthly file into maps keyed (month, asset), ingestion screens applied."""
    months, assets = set(), set()
    ret, cap, capco, nyse = {}, {}, {}, {}
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            m = month_key(row["date"])
            a = row["asset_id"]
            months.add(m)
            assets.add(a)
            if row["ret"] != "":
                value = float(row["ret"])
                if value > -1.0:
                    ret[(m, a)] = value
            if row["cap"] != "":
                value = float(row["cap"])
                if value >= 0:
                    cap[(m, a)] = value
            if row["capco"] != "":
                value = float(row["capco"])
                if value >= 0:
                    capco[(m, a)] = value
            if row["exchange_nyse"] != "":
                nyse[(m, a)] = float(row["exchange_nyse"])
    return {
        "months": sorted(months),
        "assets": sorted(assets),
        "ret": ret,
        "cap": cap,
        "capco": capco,
        "nyse": nyse,
    }


def read_annual(path, months: set[int], assets: set[str]) -> list[dict]:
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            m = month_key(row["fiscal_end"])
            if m not in months or row["asset_id"] not in assets:
                continue
            rows.append({
                "month": m,
                "asset": row["asset_id"],
                "seq": float(row["seq"]) if row["seq"] != "" else None,
                "pstkrv": float(row["pstkrv"]) if row["pstkrv"] != "" else None,
                "pstkl": float(row["pstkl"]) if row["pstkl"] != "" else None,
                "pstk": float(row["pstk"]) if row["pstk"] != "" else None,
            })
    return rows


# -- shared building blocks -------------------------------------------------


def value_weighted_leg_returns(months, assets, member, weight_basis, ret):
    """Formation-month weights earn next-month returns, renormalized.

    ``member`` maps (month, asset) -> bool, ``weight_basis`` maps
    (month, asset) -> float. Returns {stamped month: return}.
    """
    month_set = set(months)
    out = {}
    for m in months:
        holders = [a for a in assets
                   if member.get((m, a)) and (m, a) in weight_basis]
        total = sum(weight_basis[(m, a)] for a in holders)
        if not holders or total <= 0:
            continue
        nxt = m + 1
        if nxt not in month_set:
            continue
        live = [a for a in holders if (nxt, a) in ret]
        live_weight = sum(weight_basis[(m, a)] for a in live)
        if not live or live_weight <= 0:
            out[nxt] = None  # formation happened, nothing tradable
            continue
        out[nxt] = sum(
            (weight_basis[(m, a)] / live_weight) * ret[(nxt, a)] for a in live
        )
    return out


def nyse_sample(values, nyse, m, assets):
    return sorted(
        values[(m, a)] for a in assets
        if nyse.get((m, a)) == 1.0 and (m, a) in values
    )


# -- HML brute force ---------------------------------------------------------


def hml_bruteforce(monthly_path, annual_path) -> dict[int, float]:
    """Full HML chain with nested loops: {stamped month: spread}."""
    data = read_monthly(monthly_path)
    months, assets = data["months"], data["assets"]
    month_set = set(months)
    ret, cap, capco, nyse = data["ret"], data["cap"], data["capco"], data["nyse"]
    annual = read_annual(annual_path, month_set, set(assets))

    # book equity at fiscal-end months
    be = {}
    for row in annual:
        if row["seq"] is None:
            continue
        preferred = 0.0
        for field in ("pstkrv", "pstkl", "pstk"):
            if row[field] is not None:
                preferred = row[field]
                break
        value = row["seq"] - preferred
        if value > 0:
            be[(row["month"], row["asset"])] = value

    # December book-to-market, usable the following June through May
    bm = {}
    for d in months:
        if d % 12 != 11:
            continue
        for a in assets:
            latest = None
            for m in range(d - 11, d + 1):
                if (m, a) in be:
                    latest = be[(m, a)]
            cc = capco.get((d, a))
            if latest is None or cc is None or cc <= 0:
                continue
            ratio = latest / cc
            for target in range(d + 6, d + 18):
                if target in month_set:
                    bm[(target, a)] = ratio

    # June market equity, frozen June through May
    cap_june = {}
    for j in months:
        if j % 12 != 5:
            continue
        for a in assets:
            if (j, a) not in cap:
                continue
            for target in range(j, j + 12):
                if target in month_set:
                    cap_june[(target, a)] = cap[(j, a)]

    # monthly NYSE breakpoints on the frozen characteristics
    size_bin, value_bin = {}, {}
    for m in months:
        size_sample = nyse_sample(cap_june, nyse, m, assets)
        if size_sample:
            median = pct_interpolate(size_sample, 50.0)
            for a in assets:
                if (m, a) in cap_june:
                    size_bin[(m, a)] = 1 if cap_june[(m, a)] <= median else 2
        bm_sample = nyse_sample(bm, nyse, m, assets)
        if bm_sample:
            q30 = pct_interpolate(bm_sample, 30.0)
            q70 = pct_interpolate(bm_sample, 70.0)
            for a in assets:
                if (m, a) in bm:
                    v = bm[(m, a)]
                    value_bin[(m, a)] = 1 + (v > q30) + (v > q70)

    legs = {}
    for cell in ("SG", "SN", "SV", "BG", "BN", "BV"):
        s_code = 1 if cell[0] == "S" else 2
        v_code = {"G": 1, "N": 2, "V": 3}[cell[1]]
        member = {
            (m, a): (size_bin.get((m, a)) == s_code
                     and value_bin.get((m, a)) == v_code)
            for m in months for a in assets
        }
        legs[cell] = value_weighted_leg_returns(months, assets, member, cap, ret)

    spread = {}
    for m in months:
        vals = [legs[c].get(m) for c in ("SV", "BV", "SG", "BG")]
        if any(v is None for v in vals):
            continue
        sv, bv, sg, bg = vals
        spread[m] = 0.5 * (sv + bv) - 0.5 * (sg + bg)
    return spread


# -- JKP momentum brute force --------------------------------------------------


def jkp_bruteforce(monthly_path) -> dict[int, float]:
    """12-1 momentum tercile spread with capped value weights: {month: spread}."""
    data = read_monthly(monthly_path)
    months, assets = data["months"], data["assets"]
    month_set = set(months)
    ret, cap, nyse = data["ret"], data["cap"], data["nyse"]

    # 12-1 compound momentum, all eleven months required
    mom = {}
    for m in months:
        for a in assets:
            window = [ret.get((k, a)) for k in range(m - 12, m - 1)]
            present = [r for r in window if r is not None]
            if len(present) < 11:
                continue
            growth = 1.0
            for r in present:
                growth *= (1.0 + r)
            mom[(m, a)] = growth - 1.0

    # NYSE micro-cap threshold and capped market equity
    nonmicro, capped = {}, {}
    for m in months:
        caps = nyse_sample(cap, nyse, m, assets)
        p20 = pct_interpolate(caps, 20.0) if caps else None
        p80 = pct_interpolate(caps, 80.0) if caps else None
        for a in assets:
            c = cap.get((m, a))
            if c is None:
                continue
            if p20 is not None:
                nonmicro[(m, a)] = 1.0 if c >= p20 else 0.0
            capped[(m, a)] = min(c, p80) if p80 is not None else c

    # tercile bins with non-micro breakpoints; every asset with momentum binned
    tercile = {}
    for m in months:
        sample = sorted(
            mom[(m, a)] for a in assets
            if nonmicro.get((m, a)) == 1.0 and (m, a) in mom
        )
        if not sample:
            continue
        q1 = pct_interpolate(sample, 100.0 / 3.0)
        q2 = pct_interpolate(sample, 200.0 / 3.0)
        for a in assets:
            if (m, a) in mom:
                v = mom[(m, a)]
                tercile[(m, a)] = 1 + (v > q1) + (v > q2)

    top = {(m, a): tercile.get((m, a)) == 3 for m in months for a in assets}
    bottom = {(m, a): tercile.get((m, a)) == 1 for m in months for a in assets}
    top_leg = value_weighted_leg_returns(months, assets, top, capped, ret)
    bottom_leg = value_weighted_leg_returns(months, assets, bottom, capped, ret)

    spread = {}
    for m in months:
        t, b = top_leg.get(m), bottom_leg.get(m)
        if m in top_leg and m in bottom_leg and t is not None and b is not None:
            spread[m] = t - b
    return spread


# -- EWMA volatility and value-weighted market brute force ------------------------


def ewma_vol_bruteforce(monthly_path, alpha: float = 0.06,
                        min_periods: int = 12) -> dict[tuple[int, str], float]:
    """EWMA of squared returns over each asset's months with a return:
    {(month, asset): value}. s_1 = r_1**2, s_t = (1 - alpha) * s_{t-1} +
    alpha * r_t**2, reported from the ``min_periods``-th return on."""
    data = read_monthly(monthly_path)
    ret = data["ret"]
    out = {}
    for a in data["assets"]:
        state, seen = None, 0
        for m in data["months"]:
            if (m, a) not in ret:
                continue
            x = ret[(m, a)] * ret[(m, a)]
            state = x if state is None else (1.0 - alpha) * state + alpha * x
            seen += 1
            if seen >= min_periods:
                out[(m, a)] = state
    return out


def market_vw_bruteforce(monthly_path) -> dict[int, float]:
    """Cap-weighted return of every asset with a market cap: {month: return}."""
    data = read_monthly(monthly_path)
    cap = data["cap"]
    member = {key: True for key in cap}
    legs = value_weighted_leg_returns(data["months"], data["assets"], member, cap, data["ret"])
    return {m: r for m, r in legs.items() if r is not None}


def recipe_oracle(recipe: str, monthly_path, annual_path) -> dict:
    """The brute-force values of a shipped recipe's last output."""
    if recipe == "hml":
        return hml_bruteforce(monthly_path, annual_path)
    return {"jkp_momentum": jkp_bruteforce, "ewma_vol": ewma_vol_bruteforce,
            "market_vw": market_vw_bruteforce}[recipe](monthly_path)


# -- regression oracle ----------------------------------------------------------


def ols_normal_equations(y, X):
    """Coefficients via explicitly solved normal equations (pure python loops)."""
    n = len(y)
    k = len(X[0])
    xtx = [[sum(X[i][p] * X[i][q] for i in range(n)) for q in range(k)] for p in range(k)]
    xty = [sum(X[i][p] * y[i] for i in range(n)) for p in range(k)]

    # gaussian elimination with partial pivoting
    aug = [row[:] + [rhs] for row, rhs in zip(xtx, xty)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        div = aug[col][col]
        aug[col] = [v / div for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0.0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][k] for r in range(k)]


def sim_at_k_enumerated(attempt_sims, k: int) -> float:
    """Expected best-of-k similarity as the direct average of subset maxima."""
    sims = [float(s) for s in attempt_sims]
    subsets = list(combinations(range(len(sims)), k))
    return sum(max(sims[j] for j in subset) for subset in subsets) / len(subsets)


# -- provenance graph -----------------------------------------------------------


def topological_order(doc: dict) -> list[str]:
    """Kahn topological sort of an ``export_graph`` document; raises on cycles."""
    ids = [n["id"] for n in doc["nodes"]]
    indeg = {i: 0 for i in ids}
    out: dict[str, list[str]] = {i: [] for i in ids}
    for e in doc["edges"]:
        indeg[e["to"]] += 1
        out[e["from"]].append(e["to"])
    ready = [i for i in ids if indeg[i] == 0]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in out[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(ids):
        raise ValueError("provenance graph contains a cycle")
    return order
