"""Monte-Carlo experiment orchestration.

One trial is a fully deterministic function of (config, trial_id): payload
bits, channel draw, noise, antenna selection and user placement each pull
from their own derived random stream.  A trial runs in three stages, and
each config field is tagged with the first stage that reads it (the
``stage`` metadata of the config table):

* draw (``draw_trial``): payload bits, user drop, channel, frame and the
  received signal of the trial's one link, from the draw fields (users,
  antennas, seed, payload_symbols, scenario, sync_*, rayleigh.taps, ofdm.*,
  scene.*) and from whether arch is fdma.  An fdma link stacks its users'
  single-antenna, one-user links along a leading axis, and the link stage
  runs once over the stack;
* link (``_run_link``): selection, front end, noise, estimation and
  combining, adding the link fields (arch, snr_db, select, combiner,
  grouping.*, frontend.*) and the chain count arch, users and antennas
  fix (``ExperimentConfig.chains``).  A switched link captures the K*B
  stream and despreads it only when frontend.quantizer_bits is set; with
  the quantizer off it takes the same chains in closed form
  (``frontend.switched_chains``).  Both paths start from the K slot sums
  of the gated antennas, so neither upsamples an antenna.  A link's
  received power and noise stream read no link field at all, so the draw
  carries them: the noise stream is kept as drawn so far
  (``dsp.KeptNormals``), each front end reads the leading part of it that
  it needs, and every capture gets the bytes a fresh stream would give it;
* score: the decode of the link's grids and the metrics of the row,
  batched per task block (``TrialBlock``): a block's pairs wait with their
  equalized grids until the first pair of the block's last draw, which
  decodes all their codewords and its own in one recover_bits call; the
  later pairs of that draw decode at once, and a block whose pending
  codeword steps reach ``_DECODE_STEPS`` decodes them early.  Each
  codeword is decoded on its own trellis, so a row is the same in any
  batch.

Combos with equal ``draw_key`` draw identical arrays for trial t, and the
shared arrays are read-only, so a stage that writes into them fails
loudly.  A sweep runs the checked combos of ``config.sweep_combos`` and
lists every (combo, trial_id) pair, each draw key's pairs trial by trial.
A task block is a contiguous run of that list, one per worker, run as one
run_trial call per pair that all share one TrialBlock.  The block keeps
one draw at a time, so a trial is drawn once per block that holds it.
The sweep's own process runs the first block and one forked worker per
block the others, each sending its rows back on its own pipe.  The rows
are written in (combo, trial_id) order, so identical configs reproduce
identical bytes whatever the worker count or the split of blocks.
"""

from __future__ import annotations

import ctypes
import errno
import itertools
import json
import os
import pickle
import signal
import traceback
from dataclasses import fields

import numpy as np

from . import channel, metrics
from .config import DROP_MARGIN_M, ConfigError, ExperimentConfig, config_digest, sweep_combos
from .despread import time_despread
from .dsp import KeptNormals, Rng
from .equalize import apply_combiner, estimate_channel, true_effective_channel, zf_weights
from .frontend import (
    capture_hybrid,
    capture_physical,
    capture_switched,
    hybrid_weights,
    noise_power,
    received_power,
    switched_chains,
)
from .grouping import GroupingError, inphase_select, random_switch_matrix
from .waveform import (
    CP_LEN,
    FFT_SIZE,
    INFO_BITS_PER_SYMBOL,
    SYMBOL_LEN,
    build_frame,
    payload_bits_for_symbols,
    recover_bits,
    symbol_spectra,
)

# data subcarrier closest to DC (fft bin +1); the antenna selector and the
# hybrid steering weights see the channel at this single reference bin
REFERENCE_BIN = 1

# bench/tracing.py wraps runner.nullspace_weights; no trial calls it, since
# every combo combines with zf_weights
nullspace_weights = zf_weights

# derived random-stream purposes; one per independent randomness source
_P_PAYLOAD, _P_CHANNEL, _P_NOISE, _P_SELECT, _P_PLACE, _P_SYNC = range(1, 7)


def _payload_bits(cfg: ExperimentConfig, trial_rng: Rng) -> np.ndarray:
    """The trial's payloads [users, bits], each filling the payload symbols."""
    n = payload_bits_for_symbols(cfg.payload_symbols)
    return trial_rng.derive(_P_PAYLOAD).bits((cfg.users, n))


def _draw_positions(cfg: ExperimentConfig, rng: Rng) -> np.ndarray:
    """Uniform user drops [users, 2] with DROP_MARGIN_M wall margin, 0.5 m
    user spacing and 1 m standoff from the array center; a user who draws
    no clear spot in 100 tries takes the 101st draw as it falls."""
    low = (DROP_MARGIN_M, DROP_MARGIN_M)
    high = (cfg.room_x_m - DROP_MARGIN_M, cfg.room_y_m - DROP_MARGIN_M)
    ap = np.array([cfg.ap_x_m, cfg.ap_y_m])
    placed = np.empty((cfg.users, 2))
    for u in range(cfg.users):
        for _attempt in range(101):
            pos = rng.generator.uniform(low, high)
            if np.linalg.norm(pos - ap) >= 1.0 and all(
                np.linalg.norm(pos - p) >= 0.5 for p in placed[:u]
            ):
                break
        placed[u] = pos
    return placed


def _draw_channel(cfg: ExperimentConfig, trial_rng: Rng) -> np.ndarray:
    """The trial's channel gains [users, antennas, FFT_SIZE]."""
    if cfg.scenario == "rayleigh":
        gains = channel.rayleigh(
            cfg.users, cfg.antennas, FFT_SIZE, trial_rng.derive(_P_CHANNEL), cfg.rayleigh_taps
        )
    else:
        if cfg.user_positions is not None:
            positions = cfg.user_positions
        else:
            positions = _draw_positions(cfg, trial_rng.derive(_P_PLACE))
        gains = channel.ray_trace(
            (cfg.room_x_m, cfg.room_y_m),
            channel.ula_positions(cfg.antennas, (cfg.ap_x_m, cfg.ap_y_m)),
            positions,
            FFT_SIZE,
            gamma=cfg.scene_gamma,
            max_reflections=cfg.max_reflections,
            subcarrier_spacing_hz=cfg.bandwidth_hz / FFT_SIZE,
        )
        # uplink power control: every user arrives at the configured SNR,
        # so path loss does not fold into the per-user noise reference
        level = np.sqrt(np.mean(np.abs(gains) ** 2, axis=(1, 2)))
        gains /= level[:, None, None]
    if cfg.sync_mode == "offset" and cfg.sync_max_offset_samples > 0:
        offs = trial_rng.derive(_P_SYNC).generator.uniform(
            -cfg.sync_max_offset_samples, cfg.sync_max_offset_samples, cfg.users
        )
        gains = channel.with_user_delays(gains, offs)
    return gains


def _select_matrix(cfg: ExperimentConfig, h_ref: np.ndarray, trial_rng: Rng) -> np.ndarray:
    """The trial's M x K 0/1 int64 switch matrix."""
    if cfg.select == "grouped":
        return inphase_select(
            h_ref,
            phi_rad=cfg.phi_rad,
            rank_tolerance=cfg.rank_tolerance,
            max_fallbacks=cfg.max_fallbacks,
        ).matrix
    if cfg.select == "random":
        return random_switch_matrix(cfg.antennas, cfg.users, trial_rng.derive(_P_SELECT))
    return np.eye(cfg.antennas, cfg.users, dtype=np.int64)


def _assemble_row(cfg, trial_id, sinr_db, evm_pct, ber, goodput):
    """The CSV row mapping, with the row's capacity and the power of the
    receiver cfg describes."""
    sinr_db = np.asarray(sinr_db, dtype=float)
    se = goodput / (cfg.users * cfg.bandwidth_hz)
    total_mw = metrics.power(cfg).total_mw
    return {
        "trial_id": trial_id,
        "arch": cfg.arch,
        "M": cfg.antennas,
        "K": cfg.chains,
        "users": cfg.users,
        "snr_db": cfg.snr_db,
        "seed": cfg.seed,
        "sinr_db": [float(v) for v in sinr_db],
        "mean_sinr_db": float(np.mean(sinr_db)),
        "evm_pct": float(evm_pct),
        "ber": float(ber),
        "goodput_bps": float(goodput),
        "capacity_bps": metrics.capacity(sinr_db, cfg.bandwidth_hz),
        "se": float(se),
        "total_mw": float(total_mw),
        "bits_per_joule": float(metrics.bits_per_joule(goodput, total_mw)),
    }


def _failed_row(cfg: ExperimentConfig, trial_id: int) -> dict:
    nan = float("nan")
    return _assemble_row(cfg, trial_id, np.full(cfg.users, nan), nan, nan, 0.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the fields the draw stage reads; arch enters the draw key only as fdma or not
_DRAW_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.metadata["stage"] == "draw")


def draw_key(cfg: ExperimentConfig) -> tuple:
    """Configs with equal draw keys draw identical arrays for every trial."""
    return (cfg.arch == "fdma",) + tuple(getattr(cfg, name) for name in _DRAW_FIELDS)


def draw_trial(cfg: ExperimentConfig, trial_id: int) -> tuple:
    """The draw stage: the trial's payload bits [users, bits] and its link
    (bits, gains, tx_grids, rx, p_rx, noise): read-only arrays, p_rx the
    received power every snr_db refers its noise to (received_power), and
    the link's kept noise stream (KeptNormals), so every combo of the draw
    reads one draw of it, whatever its arch and snr_db.

    FDMA users sit in disjoint bands on one antenna, so there is no spatial
    interference, and the link stacks the users' one-user links along a
    leading axis: bits [users, 1, bits], gains [users, 1, 1, bins], each
    user's own one-user frame with its training at slot 0, rx [users, 1,
    samples], p_rx [users], and noise the users' streams, stream u derived
    from the trial's noise stream.  Every other architecture carries all
    users on one link, with the trial's noise stream.
    """
    trial_rng = Rng(cfg.seed, trial_id)
    bits = _frozen(_payload_bits(cfg, trial_rng))
    gains = _frozen(_draw_channel(cfg, trial_rng))
    noise = trial_rng.derive(_P_NOISE)
    if cfg.arch == "fdma":
        link_bits, link_gains = bits[:, None], gains[:, None, :1]
        noise = KeptNormals(*(noise.derive(u) for u in range(cfg.users)))
    else:
        link_bits, link_gains, noise = bits, gains, KeptNormals(noise)
    tx_streams, tx_grids = build_frame(link_bits, cfg.lts_repeats)
    rx = _frozen(channel.apply(link_gains, tx_streams, CP_LEN))
    p_rx = _frozen(np.asarray(received_power(rx)))
    return bits, (link_bits, link_gains, _frozen(tx_grids), rx, p_rx, noise)


def _run_link(cfg: ExperimentConfig, link: tuple, trial_rng: Rng) -> tuple:
    """Capture the drawn link (draw_trial's) with the configured front end,
    then estimate and combine it.  The front end reads the leading values
    of the link's kept noise stream.  An FDMA link's leading axis stacks
    one-user links, and each stage runs once over the whole stack.

    Returns the equalized grids [users, payload symbols, data bins], the
    per-user SINR (dB) and the EVM (%), the mean over an FDMA link's users.
    Raises GroupingError when the switched selector finds no usable matrix.
    """
    bits, gains, tx_grids, rx, p_rx, noise_rng = link
    users = bits.shape[-2]  # per link
    h_ref = gains[..., REFERENCE_BIN]
    sigma2 = noise_power(p_rx, cfg.snr_db, users)

    if cfg.arch == "switched":
        mixing = _select_matrix(cfg, h_ref, trial_rng)
        loss_amp = 10.0 ** (-cfg.insertion_loss_db / 20.0)
        # rounding is nonlinear, so a quantized chain needs the K*B stream
        if cfg.quantizer_bits:
            capture, noise = capture_switched(
                rx,
                mixing,
                sigma2,
                noise_rng,
                loss_amp=loss_amp,
                quantizer_bits=cfg.quantizer_bits,
            )
            chains = time_despread(capture, cfg.chains)
        else:
            chains, noise = switched_chains(rx, mixing, sigma2, noise_rng, loss_amp)
    elif cfg.arch in ("hbf_full", "hbf_partial"):
        mixing, loss_amp = hybrid_weights(h_ref, cfg.arch), 1.0
        chains, noise = capture_hybrid(rx, mixing, sigma2, noise_rng)
    else:  # dbf, and the fdma users' single-antenna links
        mixing, loss_amp = None, 1.0
        chains, noise = capture_physical(rx, sigma2, noise_rng)
    truth = true_effective_channel(gains, mixing, loss_amp)

    spectra = symbol_spectra(chains)
    # freed before the estimate, which holds a link's peak memory: at M = 64
    # the chains are as large as the kept noise stream of the draw
    del chains
    est = estimate_channel(spectra, users, cfg.lts_repeats)
    # config admits combiner = nullspace only where it is zero-forcing
    comb = zf_weights(est, cfg.rank_tolerance)
    grids = apply_combiner(spectra, comb, cfg.lts_repeats)
    sinr_db = metrics.sinr(comb.weights, truth, noise)
    evm_pct = np.mean(metrics.evm(grids, tx_grids))
    return grids.reshape(-1, *grids.shape[-2:]), sinr_db.reshape(-1), evm_pct


# A block decodes its pending codewords once they reach this many trellis
# steps (codewords x steps), not only at its last draw: recover_bits holds
# about 41 bytes per codeword step at its peak (the demapped bits, the
# decoder's uint8 decisions and its int64 output), so a decode stays near
# 1.3 MB, about 85 codewords of 384 steps.
_DECODE_STEPS = 2**15

class TrialBlock:
    """What the run_trial calls of one task block share: the draw of the
    current (draw key, trial) and the pending scores, each a row that
    waits for the block's next decode.

    ``pairs`` lists the block's (combo, trial_id) pairs, one run_trial call
    each, draw by draw.  The rows wait until the first call of the block's
    last draw, which decodes them with its own; each later call of that
    draw decodes its own pair at once.  So the batch lands on a call that
    draws, one of the block's costliest, never on a cheaper call that
    reuses the draw (on a grid of several combos, the block's last call
    would otherwise carry every pair's decode).  A call also decodes early
    once the pending codeword steps reach _DECODE_STEPS.  The draw's kept
    noise streams are dropped with it.
    """

    def __init__(self, pairs: list) -> None:
        last_cfg, last_trial = pairs[-1]
        self.last_key = (draw_key(last_cfg), last_trial)
        self.key = self.draw = None
        self.pending: list = []
        self.steps = 0  # the pending codeword steps

    def draw_for(self, cfg: ExperimentConfig, trial_id: int) -> tuple:
        """The draw of (cfg, trial_id), made unless the previous call drew
        the same (draw key, trial); the block holds one draw at a time."""
        key = (draw_key(cfg), trial_id)
        if key != self.key:
            # so two draws are never held at once
            self.key = self.draw = None
            self.draw, self.key = draw_trial(cfg, trial_id), key
        return self.draw

    def decode(self) -> None:
        """The score stage: decode every pending pair's grids in one
        recover_bits call and fill each pending row in place.  A grid has
        one payload_symbols, so its codewords have one length."""
        if not self.pending:
            return
        recovered = recover_bits(np.concatenate([entry[4] for entry in self.pending]))
        start = 0
        for row, cfg, trial_id, bits, grids, sinr_db, evm_pct in self.pending:
            airtime_s = grids.shape[1] * (SYMBOL_LEN / cfg.bandwidth_hz)
            got = recovered[start : start + len(bits)]
            goodput, ber = metrics.goodput_and_ber(got, bits, airtime_s)
            row.update(_assemble_row(cfg, trial_id, sinr_db, evm_pct, ber, goodput))
            start += len(bits)
        self.pending.clear()
        self.steps = 0


def run_trial(cfg: ExperimentConfig, trial_id: int, block: TrialBlock | None = None) -> dict:
    """One deterministic end-to-end trial, its draw, its link, then its
    score; returns the CSV row mapping.

    block, when given, is the TrialBlock the calls of one task block share:
    the trial's draw is taken from it when the previous call drew the same
    (draw_key(cfg), trial_id), and the score waits there, so the row this
    call returns stays empty until a later call of the block (or this one)
    decodes it and fills it in place.  A failed row (GroupingError) is
    returned complete.  Without a block the trial is a block of one pair,
    and its row is complete.
    """
    if block is None:
        block = TrialBlock([(cfg, trial_id)])
    bits, link = block.draw_for(cfg, trial_id)

    try:
        grids, sinr_db, evm_pct = _run_link(cfg, link, Rng(cfg.seed, trial_id))
    except GroupingError:
        row = _failed_row(cfg, trial_id)
    else:
        row = {}
        score = (row, cfg, trial_id, bits, grids, sinr_db, evm_pct)
        block.pending.append(score)
        block.steps += grids.shape[0] * grids.shape[1] * INFO_BITS_PER_SYMBOL
    if block.key == block.last_key or block.steps >= _DECODE_STEPS:
        block.decode()
    return row


def _grid_task(pairs) -> list:
    """Rows of one block of (combo, trial_id) pairs, in block order, from
    one run_trial call per pair, all sharing one TrialBlock.  The block
    lists each draw key's pairs trial by trial, so it holds one draw at a
    time."""
    block = TrialBlock(pairs)
    return [run_trial(combo, trial_id, block) for combo, trial_id in pairs]


def _fmt(value) -> str:
    return format(float(value), ".10g")


# CSV columns in order, as (row key, cell format); "sinr_db" expands to one
# sinr_db_u<k> column per user
_CSV_COLUMNS = (
    ("trial_id", str),
    ("arch", str),
    ("M", str),
    ("K", str),
    ("users", str),
    ("snr_db", _fmt),
    ("seed", str),
    ("sinr_db", _fmt),
    ("mean_sinr_db", _fmt),
    ("ber", _fmt),
    ("goodput_bps", _fmt),
    ("capacity_bps", _fmt),
    ("se", _fmt),
    ("total_mw", _fmt),
    ("bits_per_joule", _fmt),
)


def csv_header(num_users: int) -> list:
    head = []
    for key, _ in _CSV_COLUMNS:
        head += [f"sinr_db_u{u}" for u in range(num_users)] if key == "sinr_db" else [key]
    return head


def format_row(row: dict, num_users: int) -> str:
    cells = []
    for key, fmt in _CSV_COLUMNS:
        if key == "sinr_db":
            sinr = row[key]
            cells += [fmt(sinr[u]) if u < len(sinr) else "" for u in range(num_users)]
        else:
            cells.append(fmt(row[key]))
    return ",".join(cells)


# OpenBLAS's thread-count entries, by the names its numpy builds export
_OPENBLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _openblas_threads_entry(verb: str):
    """The ``verb`` ("set" or "get") thread-count entry of the OpenBLAS that
    numpy loaded, or None when no such entry is found."""
    try:
        # an extension that links it; dlsym searches its dependencies too
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _OPENBLAS_THREADS:
        entry = getattr(lib, name.format(verb), None)
        if entry is not None:
            return entry
    return None


def one_blas_thread() -> bool:
    """Hold OpenBLAS to one thread in this process, and so in the workers
    it forks, from now on; returns whether the entry that sets it was found.

    A trial's products are too small for a second thread to speed them up,
    and in a 2-worker sweep each worker's spinning helper thread takes the
    core the other worker needs.  The count is set in the process that
    forks, before the first fork: set again in each forked worker, it
    dropped a 2-worker sweep below the speed of one worker.  Nor is it
    restored afterwards: restoring it wakes the helper threads, which then
    spin into the next sweep.  Another BLAS is left as it is; set
    OPENBLAS_NUM_THREADS=1 or OMP_NUM_THREADS=1 for it.
    """
    entry = _openblas_threads_entry("set")
    if entry is None:
        return False
    entry.argtypes = [ctypes.c_int]
    entry.restype = None
    entry(1)
    return True


def _pickled_error(exc: BaseException, index: int) -> bytes:
    """What a worker sends for the exception its block raised: (False, exc,
    its traceback text), or a RuntimeError carrying exc's repr in its place
    when exc does not survive a pickle round trip."""
    text = traceback.format_exc()
    try:
        data = pickle.dumps((False, exc, text), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)  # as the parent will
    except Exception:
        error = RuntimeError(f"worker of block {index} raised {exc!r}")
        data = pickle.dumps((False, error, text), pickle.HIGHEST_PROTOCOL)
    return data


def _child(task, block, index: int, pipe: int) -> None:
    """The life of the forked worker of block index: task(block), then
    (True, its result, None) or its _pickled_error written to the pipe.  It
    leaves by os._exit on every path, so it runs no atexit hook and flushes
    no stdio buffer it inherited."""
    try:
        try:
            data = pickle.dumps((True, task(block), None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            data = _pickled_error(exc, index)
        with open(pipe, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)


def _received(data: bytes, index: int, status: int):
    """The result the worker of block index sent, reaped with status; its
    exception is raised here, and a worker that sent nothing whole raises
    a RuntimeError naming its block."""
    try:
        ok, value, text = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(
            f"worker of block {index} died without its rows (exit status {code})"
        ) from None
    if ok:
        return value
    raise value from RuntimeError(f"in the worker of block {index}:\n{text}")


def _forked(task, blocks: list) -> list:
    """task(block) of every block, in block order.  This process forks one
    child per block after the first, then runs blocks[0] itself.  The
    children inherit their blocks, so only results are pickled, each on
    its child's own pipe.  A child's exception is raised here with its type
    and message, and a child that dies without its result raises, naming
    its block.  No child outlives the call: on any exception, this
    process's own block or an interrupt included, the children left are
    killed and reaped.  No thread is started, so each fork copies a
    single-threaded process."""
    pids, pipes = {}, {}
    try:
        for index in range(1, len(blocks)):
            pipes[index], write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(task, blocks[index], index, write_end)
                pids[index] = pid
            finally:
                os.close(write_end)
        done = [task(blocks[0])]
        for index in range(1, len(blocks)):
            with open(pipes.pop(index), "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pids[index], 0)
            del pids[index]
            done.append(_received(data, index, status))
        return done
    finally:
        for pipe in pipes.values():
            os.close(pipe)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_grid(cfg: ExperimentConfig, workers: int = 1) -> tuple:
    """Run every trial of the grid; returns its combos and their rows in
    (combo, trial_id) order on any worker count.  workers must be >= 1 and
    is capped at the machine's CPU count.

    The (combo, trial_id) pairs are listed group by group of combos with
    equal draw keys, trial-major within a group, and cut into
    min(pairs, workers) contiguous blocks of near-equal size, one task each,
    so a trial is drawn once per block that holds it, and the codewords
    of every pair up to the first of the block's last draw are decoded in
    one recover_bits call (see TrialBlock).  Each block is one run_trial
    call per pair, and the grid keeps the row each call returns, filled in
    place by the block's decode.  This process forks one worker for each
    block after the first, then runs the first block itself (_forked); each
    worker sends its rows back on its own pipe.  A single block forks
    nothing.  OpenBLAS is held to one thread before the first fork
    (one_blas_thread), so the workers inherit that pin.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    one_blas_thread()
    workers = min(workers, os.cpu_count() or 1)
    combos = sweep_combos(cfg)
    groups: dict = {}
    for index, combo in enumerate(combos):
        groups.setdefault(draw_key(combo), []).append(index)
    pairs = [(i, t) for group in groups.values() for t in range(cfg.trials) for i in group]
    n = min(len(pairs), workers)
    cuts = [len(pairs) * b // n for b in range(n + 1)]
    blocks = [[(combos[i], t) for i, t in pairs[lo:hi]] for lo, hi in zip(cuts, cuts[1:])]
    done = _forked(_grid_task, blocks)
    rows = [None] * (len(combos) * cfg.trials)
    for (i, t), row in zip(pairs, itertools.chain.from_iterable(done)):
        rows[i * cfg.trials + t] = row
    return combos, rows


def run_sweep(cfg: ExperimentConfig, out_path: str, workers: int = 1) -> tuple:
    """Write run_grid's rows as CSV with a manifest; returns the row and
    combo counts the manifest records.
    Identical configs reproduce byte-identical files on any worker count.
    The output directory is made first, and neither out_path nor its
    manifest path may be a directory, so a path that cannot hold a file
    fails before any trial runs.

    Both files are written beside their targets under temporary names and
    renamed into place, the CSV first, only once both are complete: a
    failed write leaves the previous CSV and manifest as they were.
    """
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    manifest_path = out_path + ".manifest.json"
    for path in (out_path, manifest_path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    combos, rows = run_grid(cfg, workers)
    num_users = max(combo.users for combo in combos)
    lines = [",".join(csv_header(num_users))]
    lines += [format_row(row, num_users) for row in rows]
    # renamed in this order, so the CSV goes first
    staged = {path: f"{path}.{os.getpid()}.tmp" for path in (out_path, manifest_path)}
    try:
        with open(staged[out_path], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_manifest(cfg, staged[manifest_path], len(rows), len(combos))
        for target, tmp in staged.items():
            os.replace(tmp, target)
    finally:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.remove(tmp)
    return len(rows), len(combos)


def _write_manifest(cfg: ExperimentConfig, path: str, rows: int, combos: int) -> None:
    from . import __version__

    manifest = {
        "config_sha256": config_digest(cfg),
        "version": __version__,
        "rows": rows,
        "combos": combos,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
