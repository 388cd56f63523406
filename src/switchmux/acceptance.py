"""End-to-end validation checks for the release gate.

Each check exercises one product requirement through the public pipeline
and returns a CheckResult with the measured numbers in ``detail``, so a
failure message states how far off the run landed.  run_all() executes
the full battery; run_all(quick=True) keeps only the sub-second checks.

Each Monte-Carlo check is a config text, holding its seed, trials and
sweep.* keys, and a verdict over each grid combo's rows.  The rows come
from runner.run_grid, so ``switchmux sweep`` on the same text writes them.
The seeds are pinned: the checks are regression gates, not statistical
tests, and a change that moves a median past its tolerance should fail.
"""

from __future__ import annotations

import filecmp
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codes, metrics, runner
from .config import ExperimentConfig, build_config, parse_config_text
from .despread import freq_despread, time_despread
from .dsp import Rng, unit_complex
from .equalize import apply_combiner, estimate_channel, true_effective_channel, zf_weights
from .frontend import capture_switched
from .grouping import GroupingError, random_switch_matrix
from .waveform import (
    CP_LEN,
    SYMBOL_LEN,
    build_frame,
    payload_bits_for_symbols,
    recover_bits,
    symbol_spectra,
)
from . import channel


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _config(text: str):
    return build_config(parse_config_text(text))


def _sweep(text: str) -> list:
    """(combo, rows) for each grid combo of the config text, in grid order."""
    combos, rows = runner.run_grid(_config(text))
    n = combos[0].trials  # trials is not a sweep key
    return [(combo, rows[i * n : (i + 1) * n]) for i, combo in enumerate(combos)]


def _median_sinr(rows) -> float:
    return float(np.nanmedian([r["mean_sinr_db"] for r in rows]))


# --- 1: switching-code arithmetic ------------------------------------------

def check_code_math() -> CheckResult:
    """Orthogonality, completeness and the closed-form code spectrum."""
    tol = 1e-9
    worst = 0.0
    for K in (1, 2, 4, 8):
        stack = codes.generate_codes(K)
        if not np.array_equal(stack @ stack.T, np.eye(K, dtype=np.int64)):
            return CheckResult("code_math", False, f"K={K} codes not orthonormal")
        if not np.array_equal(stack.sum(axis=0), np.ones(K, dtype=np.int64)):
            return CheckResult("code_math", False, f"K={K} codes not complete")
        N = 64
        for i, code in enumerate(stack):
            spec = codes.code_spectrum(code, N)
            expected = np.zeros(N, dtype=np.complex128)
            for m in range(K):
                expected[m * (N // K)] = (N / K) * np.exp(-2j * np.pi * i * m / K)
            worst = max(worst, float(np.max(np.abs(spec - expected))))
    if worst >= tol:
        return CheckResult("code_math", False, f"spectrum error {worst:.3e} >= {tol}")
    # spot anchor: K=4 code 1 phases at harmonics {0, B, 2B, 3B}
    spec = codes.code_spectrum(codes.generate_codes(4)[1], 64)
    got = np.degrees(np.angle(spec[[0, 16, 32, 48]])) % -360.0
    got[got == 0] = 0.0
    want = np.array([0.0, -90.0, -180.0, -270.0])
    err = float(np.max(np.abs((got - want + 180) % 360 - 180)))
    passed = err < 1e-6
    return CheckResult(
        "code_math",
        passed,
        f"max spectrum error {worst:.1e}, K=4 harmonic phases "
        f"{np.round(got, 6).tolist()} deg (anchor err {err:.1e})",
    )


# --- 2: despreading equivalence ---------------------------------------------

def check_despread_equivalence() -> CheckResult:
    """Slot slicing and harmonic-shift despreading agree on random input."""
    rng = Rng(1234, 0)
    worst = 0.0
    for K in (1, 2, 4, 8):
        for _ in range(100):
            y = unit_complex(rng, K * 96)
            diff = time_despread(y, K) - freq_despread(y, K)
            worst = max(worst, float(np.max(np.abs(diff))))
    return CheckResult(
        "despread_equivalence", worst < 1e-9, f"max |time - freq| = {worst:.3e}"
    )


# --- 3: virtual chains match physical chains --------------------------------

VIRTUAL_EQUALS_PHYSICAL = (
    "users = 4\nantennas = 4\nscenario = rayleigh\npayload_symbols = 2\n"
    "seed = 11\nfrontend.insertion_loss_db = 0.0\nselect = identity\ntrials = 75\n"
    "sweep.arch = switched, dbf\nsweep.snr_db = 17, 18, 19, 20\n"
)


def check_virtual_equals_physical() -> CheckResult:
    """Identity-switched capture+despread tracks per-antenna chains.

    The switch insertion-loss constant is zeroed so the comparison
    isolates the gate-combine-despread path itself.  select only acts on
    the switched arm.  With the quantizer off the runner computes the
    switched chains in closed form (frontend.switched_chains), which gives
    the same rows as the full K*B capture and despread.
    """
    combos = _sweep(VIRTUAL_EQUALS_PHYSICAL)
    # arch is the outer grid key: the switched SNR points, then the dbf ones
    medians = [np.median([r["mean_sinr_db"] for r in rows]) for _, rows in combos]
    half = len(medians) // 2
    diffs = [float(a - b) for a, b in zip(medians[:half], medians[half:])]
    worst = max(abs(d) for d in diffs)
    per_arm = sum(len(rows) for _, rows in combos[half:])
    return CheckResult(
        "virtual_equals_physical",
        worst <= 0.5,
        f"median gap per SNR {[round(d, 3) for d in diffs]} dB (|worst| "
        f"{worst:.3f}, tol 0.5, {per_arm} trials per arm)",
    )


# --- 4: noiseless interference floor ----------------------------------------

def check_interference_floor() -> CheckResult:
    """Noiseless full-rank captures must null cross-user leakage exactly."""
    rng = Rng(77, 0)
    reps = 2  # training symbols per user
    worst_dbc = -np.inf
    for users, ants in ((2, 4), (3, 6), (4, 8), (8, 8)):
        bits = rng.bits((users, payload_bits_for_symbols(2)))
        tx_streams, _ = build_frame(bits, reps)
        gains = channel.rayleigh(users, ants, 64, rng.derive(1), 3)
        rx = channel.apply(gains, tx_streams, CP_LEN)
        s = random_switch_matrix(ants, users, rng.derive(2))
        cap, _ = capture_switched(rx, s, 0.0, rng.derive(3))
        chains = time_despread(cap, users)
        spectra = symbol_spectra(chains)
        comb = zf_weights(estimate_channel(spectra, users, reps))
        grids = apply_combiner(spectra, comb, reps)
        if np.any(recover_bits(grids) != bits):
            return CheckResult(
                "interference_floor", False, f"bit errors at users={users} M={ants}"
            )
        # per bin, |V Heff|^2 [bins, users, users]: wanted power on the diagonal
        power = np.abs(comb.weights @ true_effective_channel(gains, s)) ** 2
        off = np.where(np.eye(users, dtype=bool), 0.0, power)
        leak = off.max(axis=(1, 2)) / np.diagonal(power, axis1=1, axis2=2).min(axis=1)
        worst_dbc = max(worst_dbc, 10 * np.log10(max(leak.max(), 1e-300)))
    return CheckResult(
        "interference_floor",
        worst_dbc < -60.0,
        f"worst cross-user leakage {worst_dbc:.1f} dBc (tol -60), BER 0",
    )


# --- 5: grouped selection beats random switching ----------------------------

_FIXED_USERS = ((2.0, 2.5), (4.5, 4.0), (7.5, 4.0), (10.0, 2.5))


def check_grouped_vs_random() -> CheckResult:
    """Phase-aligned grouping vs random full-rank matrices, one fixed room."""
    pin = "".join(
        f"scene.user{i}_x_m = {x}\nscene.user{i}_y_m = {y}\n"
        for i, (x, y) in enumerate(_FIXED_USERS)
    )
    text = (
        "users = 4\nantennas = 8\nsnr_db = 15\nscenario = raytrace\n"
        "payload_symbols = 2\nseed = 5\ntrials = 100\nsweep.select = grouped, random\n" + pin
    )
    grouped, random_s = (_median_sinr(rows) for _, rows in _sweep(text))
    gap = grouped - random_s
    return CheckResult(
        "grouped_vs_random",
        gap >= 3.0,
        f"grouped median {grouped:.2f} dB vs random {random_s:.2f} dB, "
        f"gap {gap:+.2f} dB (tol >= 3)",
    )


# --- 6: more antennas harden the same user load -----------------------------

def check_antenna_hardening() -> CheckResult:
    """Both the median SINR and the share of rooms in which every user
    clears 10 dB must rise strictly over M = 4, 6, 8.

    Grouping failures produce NaN rows and count against the all-users
    share at every M.  The 90% share at M=8 is a reported target, not a
    pass condition: the method does not promise it, and at the check's
    seed even an exhaustive search over the selector's candidate sets
    reaches only about 83%.
    """
    medians, shares = {}, {}
    for cfg, rows in _sweep(
        "users = 4\nsnr_db = 15\nscenario = raytrace\npayload_symbols = 2\nseed = 2\n"
        "trials = 100\nsweep.antennas = 4, 6, 8\n"
    ):
        m = cfg.antennas
        medians[m] = _median_sinr(rows)
        ok = sum(
            1
            for r in rows
            if np.all(np.isfinite(r["sinr_db"])) and min(r["sinr_db"]) > 10.0
        )
        shares[m] = 100.0 * ok / len(rows)
    medians_rise = medians[4] < medians[6] < medians[8]
    shares_rise = shares[4] < shares[6] < shares[8]
    return CheckResult(
        "antenna_hardening",
        medians_rise and shares_rise,
        f"medians M4/M6/M8 = {medians[4]:.2f}/{medians[6]:.2f}/{medians[8]:.2f} dB "
        f"(rising {medians_rise}), all-users>10dB M4/M6/M8 = "
        f"{shares[4]:.0f}/{shares[6]:.0f}/{shares[8]:.0f}% (rising {shares_rise}; "
        f"target 90% at M=8 reported, not gated)",
    )


# --- 7: 64-antenna / 8-user architecture ordering ---------------------------

def _best_arc_gain(h: np.ndarray) -> float:
    """Best |sum h|^2 / n over antenna sets forming a contiguous arc in
    phase order: the most an on/off group can give one user when each gated
    antenna brings its own unit of noise."""
    num = h.size
    ordered = h[np.argsort(np.angle(h))]
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([ordered, ordered]))])
    start = np.arange(num)[:, None]
    length = np.arange(1, num + 1)[None, :]
    sums = csum[start + length] - csum[start]
    return float(np.max(np.abs(sums) ** 2 / length))


def _single_user_gains_db(cfg) -> dict:
    """Median single-user array gains (dB) at the reference bin.

    Gains are over one antenna at the runner's power-controlled unit level,
    from each trial's ground-truth channel: MRC is ||h||^2, the best on/off
    arc is _best_arc_gain, and the selected group is |h . s_u|^2 / n_u for
    user u's column of the switch matrix the trial selects.  Trials whose
    selection fails contribute no selected-group gain.
    """
    gains = {"mrc": [], "arc": [], "selected": []}
    for t in range(cfg.trials):
        trial_rng = Rng(cfg.seed, t)
        h_ref = runner._draw_channel(cfg, trial_rng)[:, :, runner.REFERENCE_BIN]
        gains["mrc"] += list(np.sum(np.abs(h_ref) ** 2, axis=1))
        gains["arc"] += [_best_arc_gain(h) for h in h_ref]
        try:
            cols = runner._select_matrix(cfg, h_ref, trial_rng)
        except GroupingError:
            gains["selected"] += [np.nan] * cfg.users
            continue
        summed = np.einsum("um,mu->u", h_ref, cols)
        gains["selected"] += list(np.abs(summed) ** 2 / cols.sum(axis=0))
    return {k: float(10 * np.log10(np.nanmedian(v))) for k, v in gains.items()}


def check_large_array_ordering() -> CheckResult:
    """Partially-connected HBF < switched <= fully-connected HBF ~= DBF,
    with the switched array within 5 +/- 2 dB of the 64-chain DBF median.

    The detail splits the DBF-switched gap into single-user array gain the
    switched group gives up against MRC (on/off combining, then the
    selector's choice against the best on/off arc), the switch insertion
    loss, and a remainder attributed to the combiner, chiefly the extra
    noise enhancement of the square K x K zero-forcing inverse.
    """
    combos = _sweep(
        "users = 8\nantennas = 64\nsnr_db = 15\nscenario = raytrace\n"
        "payload_symbols = 2\nseed = 1\ntrials = 50\n"
        "sweep.arch = switched, dbf, hbf_full, hbf_partial\n"
    )
    med = {cfg.arch: _median_sinr(rows) for cfg, rows in combos}
    gap = med["dbf"] - med["switched"]
    ordering = (
        med["hbf_partial"] < med["switched"] <= med["hbf_full"]
        and abs(med["hbf_full"] - med["dbf"]) <= 2.0
    )
    passed = ordering and 3.0 <= gap <= 7.0
    sw = combos[0][0]
    g = _single_user_gains_db(sw)
    loss = sw.insertion_loss_db
    remainder = gap - (g["mrc"] - g["selected"]) - loss
    return CheckResult(
        "large_array_ordering",
        passed,
        "medians dB: pHBF {hbf_partial:.2f} < switched {switched:.2f} <= "
        "fHBF {hbf_full:.2f} ~= DBF {dbf:.2f} (ordering {o}); DBF-switched gap "
        "{gap:.2f} dB (tol 5 +/- 2) = on/off combining {onoff:.2f} (median "
        "single-user gain MRC {mrc:.2f} vs best on/off arc {arc:.2f}) + "
        "selector {sel:.2f} (selected group {selected:.2f}) + insertion loss "
        "{loss:.2f} + combining remainder {rem:.2f} dB".format(
            o=ordering,
            gap=gap,
            onoff=g["mrc"] - g["arc"],
            sel=g["arc"] - g["selected"],
            loss=loss,
            rem=remainder,
            **g,
            **med,
        ),
    )


# --- 8: receiver power arithmetic -------------------------------------------

def check_power_arithmetic() -> CheckResult:
    anchors = [
        (metrics.power(ExperimentConfig("switched", 4, 8)).total_mw, 762.0),
        (metrics.power(ExperimentConfig("dbf", 4, 4)).total_mw, 2032.0),
        (metrics.power(ExperimentConfig("fdma", 4, 1)).total_mw, 754.0),
        (metrics.power(ExperimentConfig("dbf", 4, 8)).total_mw, 4064.0),
    ]
    got = [round(a, 9) for a, _ in anchors]
    want = [w for _, w in anchors]
    if got != want:
        return CheckResult("power_arithmetic", False, f"totals {got} != {want} mW")
    # converter power is linear in rate and count
    one = metrics.adc_power(1e-11, 12, 1e7)
    linear = (
        metrics.adc_power(1e-11, 12, 4e7) == 4 * one
        and metrics.adc_power(1e-11, 12, 8e7) == 8 * one
    )
    return CheckResult(
        "power_arithmetic",
        linear,
        f"totals {want} mW exact, adc_power linear {linear}",
    )


# --- 9: frame rate and capacity anchors -------------------------------------

def check_rate_and_capacity() -> CheckResult:
    # nominal rate from the frame arithmetic: info bits added per extra
    # payload symbol over the symbol period, times four 10 MHz users
    def airtime_s(symbols):
        bits = np.zeros((1, payload_bits_for_symbols(symbols)), dtype=np.int64)
        _, grids = build_frame(bits, 2)
        return grids.shape[1] * (SYMBOL_LEN / 1e7)

    per_symbol = payload_bits_for_symbols(2) - payload_bits_for_symbols(1)
    symbol_s = airtime_s(2) - airtime_s(1)
    nominal = 4 * per_symbol / symbol_s
    [(_, [row])] = _sweep(
        "users = 4\nantennas = 4\narch = fdma\nsnr_db = 40\npayload_symbols = 4\nseed = 3\n"
        "trials = 1\n"
    )
    rate_ok = row["ber"] == 0.0 and abs(nominal - 48e6) < 1e-6
    cap = metrics.capacity(np.full(4, 15.0), 1e7)
    cap_ok = 195e6 <= cap <= 205e6
    return CheckResult(
        "rate_and_capacity",
        rate_ok and cap_ok,
        f"nominal aggregate rate {nominal / 1e6:.1f} Mbps (want 48, error-free "
        f"4-symbol goodput {row['goodput_bps'] / 1e6:.2f}), 4x10MHz capacity at "
        f"15 dB {cap / 1e6:.1f} Mbps (want 195..205)",
    )


# --- 10: tolerance to unsynchronized users ----------------------------------

def check_sync_insensitivity() -> CheckResult:
    base = (
        "users = 4\nantennas = 8\nsnr_db = 20\nscenario = rayleigh\n"
        "payload_symbols = 2\nseed = 9\ntrials = 50\n"
    )
    # sync_mode is not a sweep key, so each mode is its own text
    aligned, offset = (
        _median_sinr(rows)
        for mode in ("aligned", "offset")
        for _, rows in _sweep(base + f"sync_mode = {mode}\n")
    )
    diff = abs(aligned - offset)
    return CheckResult(
        "sync_insensitivity",
        diff < 1.0,
        f"aligned median {aligned:.2f} dB vs fractional-offset {offset:.2f} dB, "
        f"|diff| {diff:.3f} dB (tol < 1)",
    )


# --- 11: byte-identical sweeps ----------------------------------------------

def check_sweep_determinism() -> CheckResult:
    text = (
        "users = 2\nantennas = 4\npayload_symbols = 2\ntrials = 2\nseed = 7\n"
        "sweep.snr_db = 10, 20\n"
    )
    cfg = _config(text)
    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.csv"
        b = Path(tmp) / "b.csv"
        runner.run_sweep(cfg, str(a))
        runner.run_sweep(cfg, str(b))
        same = filecmp.cmp(a, b, shallow=False)
        size = a.stat().st_size
    return CheckResult(
        "sweep_determinism", same, f"two runs byte-identical: {same} ({size} bytes)"
    )


# the battery in order, each check with whether the quick battery keeps it
_BATTERY = (
    (check_code_math, True),
    (check_despread_equivalence, True),
    (check_virtual_equals_physical, False),
    (check_interference_floor, True),
    (check_grouped_vs_random, False),
    (check_antenna_hardening, False),
    (check_large_array_ordering, False),
    (check_power_arithmetic, True),
    (check_rate_and_capacity, True),
    (check_sync_insensitivity, False),
    (check_sweep_determinism, True),
)


def run_all(quick: bool = False) -> list:
    """Run the battery in order; quick keeps only the sub-second checks."""
    return [check() for check, fast in _BATTERY if fast or not quick]
