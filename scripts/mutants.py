"""Run a fixed table of source mutants against the Tier-1 tests.

    python scripts/mutants.py

Each entry of ``MUTANTS`` is one exact text substitution in one file of
``src/liborlab`` together with what it breaks.  The script copies the tree
(without ``.git``) to a temporary directory once, checks that the unmutated
suite passes there, and then, one mutant at a time, writes the mutated file,
runs ``python -m pytest -x`` and restores the file.  It prints ``killed`` with
the first failing test, or ``survived``, and ends with ``killed n of m``; the
exit code is 1 when a mutant survives.  Old text that is not found exactly
once stops the script before any test runs, so the table has to follow the
code.  The whole table takes about 7 minutes on 2 CPUs, most of it in the
baseline run and in the mutants that the acceptance tests kill.  It is not part
of the Tier-1 suite.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/liborlab, exact old text, new text, what it breaks)
MUTANTS = {
    "drift-tail-sign": (
        "lmm.py", "drift = np.subtract(self.const, np.multiply(self.c_lam, tail",
        "drift = np.add(self.const, np.multiply(self.c_lam, tail",
        "the sign of c lambda tail in the exact drift",
    ),
    "weights-without-denominator": (
        "lmm.py", "np.divide(x, np.add(x, 1.0, out=work.w), out=work.w)",
        "np.divide(x, 1.0, out=work.w)",
        "the kernel's w = delta L in place of delta L / (1 + delta L)",
    ),
    "jump-table-without-weights": (
        "lmm.py", "self.w_em1 = self.em1 * weights", "self.w_em1 = self.em1",
        "the jump integral's table without the quadrature weights",
    ),
    "jump-tilt-not-updated": (
        "lmm.py", "                prod *= tmp\n", "                prod *= 1.0\n",
        "the jump-tilt product of the later rates left at its first factor",
    ),
    "weights-not-normalised": (
        "lmm.py", "forward /= forward0[d + 1 : n]", "pass",
        "the density weight without its division by the time-zero forward prices",
    ),
    "fpm-rate-exp": (
        "forward_price.py", "np.expm1(log_f, out=out)", "np.exp(log_f, out=out)",
        "the FPM rate map with exp in place of expm1: L off by 1 / delta",
    ),
    "picard-without-own-term": (
        "drift_approx.py", "drift = -chars.diffusion_c * lam_row * g * (tail + wl)",
        "drift = -chars.diffusion_c * lam_row * g * tail",
        "the Picard weight drift without its own w_k lambda_k term",
    ),
    "picard-without-drift-b": (
        "drift_approx.py", "drift -= g * lam_row * chars.drift_b", "drift -= 0.0",
        "the Picard weight drift without the b dt part of lambda dH taken back",
    ),
    "taylor-y-without-beta0": (
        "drift_approx.py", "y += np.add(table[0], ldh, out=work.scratch)", "y += ldh",
        "the Taylor first-variation process Y without the frozen drift beta0",
    ),
    "fpm-drift-table-sign": (
        "forward_price.py",
        "self.chars.cumulant(tails[j, k + 1]) - self.chars.cumulant(tails[j, k])",
        "self.chars.cumulant(tails[j, k]) - self.chars.cumulant(tails[j, k + 1])",
        "the sign of the FPM drift table",
    ),
    "fourier-residue-dropped": (
        "fourier.py", "        total += math.exp(cumulants[-1].real)", "        pass",
        "the residue term of the damped Fourier call inversion",
    ),
    "cir-flow-without-decay": (
        "affine.py", "psi = u * ec * np.exp(-log_den)", "psi = u * np.exp(-log_den)",
        "the CIR flow's psi without its mean-reversion decay factor",
    ),
    "chi2-tilt-halved": (
        "affine_libor.py", "    shrink = 1.0 - 2.0 * scale * q", "    shrink = 1.0 - scale * q",
        "the chi-square closed form with half its exponential tilt",
    ),
    "compensator-sign": (
        "levy.py", "dh -= chars.jump_mean_rate * dts", "dh += chars.jump_mean_rate * dts",
        "the sign of the driver's jump compensator",
    ),
    "mfm-numeraire-without-delta": (
        "markov_functional.py", "rho = (1.0 + tenor.delta * strikes) * j_nodes",
        "rho = (1.0 + strikes) * j_nodes",
        "the MFM numeraire functional without the accrual delta",
    ),
    "mfm-j-variance": (
        "markov_functional.py",
        "var = self.driver.variance(dates[i + 1]) - self.driver.variance(dates[i])",
        "var = self.driver.variance(dates[i + 1]) - self.driver.variance(dates[i - 1])",
        "J_i's conditional variance taken from T_{i-1} in place of T_i",
    ),
    "mfm-zero-vol-scale": (
        "markov_functional.py", "return grid.curve.bond(i + 1), beyond",
        "return grid.curve.bond(i), beyond",
        "the sigma = 0 quotes scaled by B(0, T_i) in place of B(0, T_{i+1})",
    ),
    "affine-weight-wrong-measure": (
        "affine_libor.py",
        "m_now = martingale_value(family, family.u_seq[d + 1], tenor.dates[d], states[d])\n"
        "        m_zero = martingale_value(family, family.u_seq[d + 1], 0.0, family.params.x0)",
        "m_now = martingale_value(family, family.u_seq[d], tenor.dates[d], states[d])\n"
        "        m_zero = martingale_value(family, family.u_seq[d], 0.0, family.params.x0)",
        "the affine fixing weight under the T_k in place of the T_{k+1} forward measure",
    ),
    "stderr-unpaired": (
        "pricing.py",
        "        samples = np.add(samples[:half], samples[half:], out=samples[:half])\n"
        "        samples *= 0.5\n",
        "        pass\n",
        "the Monte Carlo standard error with the antithetic pairing switched off",
    ),
    "iv-expiry-next-date": (
        "pricing.py", "expiry=curve.tenor.dates[k]", "expiry=curve.tenor.dates[k + 1]",
        "the implied vol annualized over T_{k+1} in place of the fixing date T_k",
    ),
    "index-hi-off-by-one": (
        "pricing.py", 'paths.tenor.check("caplet", k, 1, paths.tenor.n - 1)',
        'paths.tenor.check("caplet", k, 1, paths.tenor.n)',
        "mc_caplet's tenor-index range one past the last dynamic rate",
    ),
    "fpm-floor-admitted": (
        "experiment.py", '(s == low and model != "affine")', '(s == low and model == "mfm")',
        "the config check lets the FPM value a strike of exactly -1/delta",
    ),
    "lmm-zero-rate-admitted": (
        "experiment.py", "if any(m in _LMM_SCHEMES for m in cfg.models) and not np.all(libors > 0.0):",
        "if False:",
        "the config check lets the market model start from a zero rate",
    ),
    "verdict-lets-nan-pass": (
        "experiment.py", 'status = "PASS" if lo <= statistic <= hi else',
        'status = "PASS" if not statistic > hi else',
        "the verify verdict without its lower bound, which lets a NaN statistic pass",
    ),
    "witness-where-loaded": (
        "experiment.py",
        "expected = (lmm.chars.diffusion_c > 0.0 or jumps) and np.any(lam[0, 2:] * lam[1, 2:])",
        "expected = np.any(lam[1, 2:])",
        "the structure witness expected wherever a later rate has a loading on [T_1, T_2)",
    ),
    "fpm-roundoff-in-libor-ulp": (
        "experiment.py", "np.spacing(1.0 + delta * paths.initial_libors) / delta",
        "np.spacing(paths.initial_libors)",
        "the FPM's deterministic martingale gap held to ulp of L(0, T_k), not of its state",
    ),
    "still-fpm-by-fourier": (
        "forward_price.py", "still = chars.diffusion_c == 0.0 and not chars.has_jumps",
        "still = False",
        "the FPM Fourier price of a driver that neither diffuses nor jumps by inversion",
    ),
    "affine-structure-fixed-v": (
        "experiment.py", "min(0.25, 0.5 * (explosion_threshold(family.params, r - s) - q))", "0.25",
        "the affine structure check's v = 0.25 outside the moment domain",
    ),
}


def _pytest(tree: Path):
    """(passed, first failing test) of ``pytest -x`` on the tree's own sources."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 0, first.group(1) if first else f"exit {proc.returncode}"


def main() -> int:
    for name, (file, old, _, _) in MUTANTS.items():
        count = (ROOT / "src" / "liborlab" / file).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{name}: the old text occurs {count} times in {file}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", "out", ".perfbench_*"))
        passed, first = _pytest(tree)
        if not passed:
            print(f"the unmutated suite fails ({first}); no mutant can be judged")
            return 2
        killed = 0
        for name, (file, old, new, what) in MUTANTS.items():
            path = tree / "src" / "liborlab" / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                passed, first = _pytest(tree)
            finally:
                path.write_text(text)
            killed += not passed
            print(f"{name:<28} {'survived' if passed else 'killed by ' + first}  ({what})",
                  flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
