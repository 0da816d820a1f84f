"""Output checks of the three workloads, run on every invocation.

Each check reads the files the CLI wrote and counts failed operations: one
quote row (compare, price) or one verify check line.  Every numeric CSV field
is scanned for NaN and infinity here, independently of the program's own
PASS lines.  A failure that concerns the whole output (ordering, missing
summary) fails every operation of the invocation.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_RTOL = 1e-12
CHI2_ATOL = 5e-10  # tests/test_affine_libor.py::test_caplet_fourier_matches_chi2


@dataclass
class Outcome:
    ops: int
    bad_rows: set = field(default_factory=set)
    missing: int = 0
    whole_failure: bool = False
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # accuracy figures, printed by name
    quotes: int = 0
    iv_defined: int = 0
    chi2_ms: list = field(default_factory=list)
    digest: str = ""

    @property
    def failed(self) -> int:
        if self.whole_failure:
            return self.ops
        return min(self.ops, len(self.bad_rows) + self.missing)

    def fail_all(self, problem: str) -> None:
        self.whole_failure = True
        self.problems.append(problem)


def _non_finite(value: str) -> bool:
    try:
        return not math.isfinite(float(value))
    except ValueError:
        return False


def read_csv(path: Path):
    """Rows as dicts and the indices of rows holding a non-finite field."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad = {i for i, row in enumerate(rows) if any(_non_finite(v) for v in row.values() if v)}
    return rows, bad


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _quote_rows(res: Outcome, path: Path) -> list:
    rows, bad = read_csv(path)
    res.bad_rows |= bad
    for i in sorted(bad):
        res.problems.append(f"{path.name} row {i + 1}: non-finite field")
    res.missing = max(0, res.ops - len(rows))
    if res.missing:
        res.problems.append(f"{path.name}: {len(rows)} rows, expected {res.ops}")
    res.quotes = len(rows)
    res.iv_defined = sum(1 for r in rows if r["implied_vol"])
    return rows


def check_compare(out_dir: Path, ctx: dict) -> Outcome:
    res = Outcome(ops=ctx["ops"])
    rows = _quote_rows(res, out_dir / "quotes.csv")
    for path in sorted(out_dir.glob("ivdiff_*.csv")) + [out_dir / "summary.txt"]:
        if read_csv(path)[1]:
            res.fail_all(f"{path.name}: non-finite field")
    summary = {r["scheme"]: float(r["max_abs_iv_diff"]) for r in read_csv(out_dir / "summary.txt")[0]}
    gaps = {}
    for scheme in ("frozen", "picard1", "taylor"):
        if f"lmm-{scheme}" not in summary:
            res.fail_all(f"summary.txt has no lmm-{scheme} row")
            return res
        gaps[scheme] = res.values[f"iv_gap_{scheme}"] = summary[f"lmm-{scheme}"]
    if not gaps["taylor"] < gaps["picard1"] < gaps["frozen"]:
        res.fail_all(f"scheme accuracy order broken: {gaps}")

    reference = ctx.get("reference")
    if reference is not None:
        for i, (row, ref) in enumerate(zip(rows, reference)):
            key, want = (row["scheme"], row["k"], row["strike"]), (ref["scheme"], ref["k"], ref["strike"])
            got, expect = float(row["price"]), float(ref["price"])
            if key != want or not abs(got - expect) <= REFERENCE_RTOL * abs(expect):
                res.bad_rows.add(i)
                res.problems.append(f"quotes.csv row {i + 1}: {key} price {got!r} vs reference {expect!r}")
    res.digest = digest(out_dir)
    return res


def check_verify(out_dir: Path, ctx: dict) -> Outcome:
    res = Outcome(ops=ctx["ops"])
    text = (out_dir / "verify_report.txt").read_text(encoding="utf-8").splitlines()
    rules = [i for i, line in enumerate(text) if line.startswith("-" * 20)]
    if len(rules) != 2 or text[-1] != "RESULT: PASS":
        res.fail_all(f"verify report does not end in RESULT: PASS: {text[-1:]}")
        return res
    lines = text[rules[0] + 1:rules[1]]
    res.missing = max(0, res.ops - len(lines))
    worst_se = 0.0
    for i, line in enumerate(lines):
        model, check, status, detail = line.split(None, 3)
        if status not in ("PASS", "WITNESS") or re.search(r"\b(nan|inf)\b", detail, re.I):
            res.bad_rows.add(i)
            res.problems.append(f"verify line {i + 1}: {line}")
        gap = re.search(r"worst martingale gap (\S+) SE", detail)
        if gap:
            worst_se = max(worst_se, float(gap.group(1)))
    res.values["mart_gap_se"] = worst_se
    res.digest = digest(out_dir)
    return res


def check_price(out_dir: Path, ctx: dict) -> Outcome:
    from liborlab.affine_libor import caplet_price_chi2

    res = Outcome(ops=ctx["ops"])
    rows = _quote_rows(res, out_dir / "prices.csv")
    family = ctx["family"]
    worst, lowest = 0.0, float("inf")
    for i, row in enumerate(rows):
        if i in res.bad_rows:
            continue
        price = float(row["price"])
        # Monte Carlo prices average nonnegative payoffs; transform and grid
        # prices are accurate to CHI2_ATOL, so only a larger deficit is negative
        floor = 0.0 if row["scheme"] == "mc" else -CHI2_ATOL
        if price < floor:
            res.bad_rows.add(i)
            res.problems.append(f"prices.csv row {i + 1}: negative price {price!r}")
        lowest = min(lowest, price)
        if (row["model"], row["scheme"]) == ("affine", "fourier"):
            t0 = time.monotonic()
            chi2 = caplet_price_chi2(family, int(row["k"]), float(row["strike"]))
            res.chi2_ms.append(1e3 * (time.monotonic() - t0))
            err = abs(price - chi2)
            worst = max(worst, err)
            if not err <= CHI2_ATOL:
                res.bad_rows.add(i)
                res.problems.append(f"prices.csv row {i + 1}: affine Fourier {price!r} vs chi2 {chi2!r}")
    res.values["fourier_chi2_abs_err"] = worst
    res.values["min_price"] = lowest
    res.digest = digest(out_dir)
    return res
