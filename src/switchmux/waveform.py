"""802.11-style OFDM transmitter and receiver per user.

64 subcarriers (48 data, 4 pilots, 12 nulls), 16-sample cyclic prefix,
Gray-coded QAM-16, rate-1/2 constraint-7 convolutional code (generators
133/171 octal, zero-tail) with hard-decision Viterbi, and per-symbol block
interleaving. Frames start with per-user long training symbols in
non-overlapping time slots so each user's channel can be estimated cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Long training symbol, fft bin order (DC first, upper half = negative bins).
LTS_FREQ = np.array(
    [0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1,
     -1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, -1, -1, 1, 1, -1, 1,
     -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1],
    dtype=np.complex128,
)
PILOT_BINS = np.array([7, 21, 43, 57])
PILOT_VALUES = np.array([1, 1, -1, 1], dtype=np.complex128)
DATA_BINS = np.r_[1:7, 8:21, 22:27, 38:43, 44:57, 58:64]
USED_BINS = np.sort(np.concatenate([DATA_BINS, PILOT_BINS]))

# Unit-amplitude Gray axis: bit pair 00,01,10,11 -> level -3,-1,+3,+1.
QAM16_AXIS = np.array([-3, -1, 3, 1]) / np.sqrt(10.0)
_AXIS_BITS_BY_LEVEL_RANK = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])  # -3,-1,+1,+3

CONV_G0 = 0o133
CONV_G1 = 0o171
CONV_K = 7
_TAIL = CONV_K - 1


@dataclass(frozen=True)
class OfdmConfig:
    """Per-user modem settings: the bandwidth B and the training symbols
    per user.  The 802.11a numerology the modem implements (64-point FFT,
    16-sample prefix, 48 data bins of QAM-16, rate-1/2 code) is fixed and
    read from class constants."""

    user_bandwidth_hz: float = 10e6
    lts_repeats: int = 2

    fft_size = 64
    cp_len = 16
    data_subcarriers = len(DATA_BINS)
    bits_per_symbol = 4
    code_rate = 0.5

    def __post_init__(self) -> None:
        if self.lts_repeats < 1:
            raise ValueError("lts_repeats must be >= 1")
        if self.user_bandwidth_hz <= 0:
            raise ValueError("user_bandwidth_hz must be positive")

    @property
    def symbol_len(self) -> int:
        return self.fft_size + self.cp_len

    @property
    def symbol_duration_s(self) -> float:
        return self.symbol_len / self.user_bandwidth_hz

    @property
    def coded_bits_per_symbol(self) -> int:
        return self.data_subcarriers * self.bits_per_symbol

    @property
    def info_bits_per_symbol(self) -> int:
        return int(self.coded_bits_per_symbol * self.code_rate)

    @property
    def tx_scale(self) -> float:
        # makes the mean time-domain sample power of a symbol exactly 1
        return self.fft_size / np.sqrt(len(USED_BINS))

    def payload_bits_for_symbols(self, num_symbols: int) -> int:
        """Largest zero-tail-terminated payload that fills num_symbols."""
        return self.info_bits_per_symbol * num_symbols - _TAIL


def _parity_table() -> np.ndarray:
    bits = np.arange(128, dtype=np.uint8)
    return np.array([bin(b).count("1") & 1 for b in bits], dtype=np.int64)


_PARITY = _parity_table()


def _transitions():
    """next_state[s, b] and the 2-bit branch output out_sym[s, b]."""
    states = np.arange(64)
    next_state = np.zeros((64, 2), dtype=np.int64)
    out_sym = np.zeros((64, 2), dtype=np.int64)
    for b in (0, 1):
        reg = (b << 6) | states
        next_state[:, b] = reg >> 1
        out_sym[:, b] = 2 * _PARITY[reg & CONV_G0] + _PARITY[reg & CONV_G1]
    return next_state, out_sym


_NEXT_STATE, _OUT_SYM = _transitions()


def _predecessors():
    prev_state = np.zeros((64, 2), dtype=np.int64)
    prev_bit = np.zeros((64, 2), dtype=np.int64)
    fill = np.zeros(64, dtype=np.int64)
    for s in range(64):
        for b in (0, 1):
            ns = _NEXT_STATE[s, b]
            prev_state[ns, fill[ns]] = s
            prev_bit[ns, fill[ns]] = b
            fill[ns] += 1
    assert np.all(fill == 2)
    return prev_state, prev_bit


_PREV_STATE, _PREV_BIT = _predecessors()


def conv_encode(bits) -> np.ndarray:
    """Rate-1/2 constraint-7 encoder, zero-tail terminated."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-D vector")
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0/1")
    out = np.zeros(2 * (bits.size + _TAIL), dtype=np.int64)
    state = 0
    for i, b in enumerate(np.concatenate([bits, np.zeros(_TAIL, dtype=np.int64)])):
        sym = _OUT_SYM[state, b]
        out[2 * i] = sym >> 1
        out[2 * i + 1] = sym & 1
        state = _NEXT_STATE[state, b]
    return out


def viterbi_decode(coded) -> np.ndarray:
    """Hard-decision Viterbi for conv_encode's code; returns the payload
    bits (tail removed). Input length must be even."""
    coded = np.asarray(coded, dtype=np.int64)
    if coded.ndim != 1 or coded.size % 2 != 0:
        raise ValueError("coded bits must be a 1-D vector of even length")
    steps = coded.size // 2
    if steps <= _TAIL:
        raise ValueError("too short to contain a terminated codeword")
    INF = 10**9
    metrics = np.full(64, INF, dtype=np.int64)
    metrics[0] = 0
    back = np.zeros((steps, 64), dtype=np.int8)
    pairs = 2 * coded[0::2] + coded[1::2]
    # Hamming distance between each observed pair and each branch symbol.
    ham = np.array([[bin(a ^ b).count("1") for b in range(4)] for a in range(4)])
    for t in range(steps):
        branch = ham[pairs[t]][_OUT_SYM[_PREV_STATE, _PREV_BIT]]
        cand = metrics[_PREV_STATE] + branch
        back[t] = np.argmin(cand, axis=1)
        metrics = np.min(cand, axis=1)
    state = 0  # zero tail forces the final state
    bits = np.zeros(steps, dtype=np.int64)
    for t in range(steps - 1, -1, -1):
        choice = back[t, state]
        bits[t] = _PREV_BIT[state, choice]
        state = _PREV_STATE[state, choice]
    return bits[: steps - _TAIL]


def qam16_map(bits) -> np.ndarray:
    """Gray-coded 16-QAM, unit average energy; 4 bits per symbol."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % 4 != 0:
        raise ValueError("bit count must be a multiple of 4")
    quads = bits.reshape(-1, 4)
    re = QAM16_AXIS[2 * quads[:, 0] + quads[:, 1]]
    im = QAM16_AXIS[2 * quads[:, 2] + quads[:, 3]]
    return re + 1j * im


def qam16_demap(symbols) -> np.ndarray:
    """Hard nearest-neighbor demapping back to bits."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = np.zeros((symbols.size, 4), dtype=np.int64)
    for axis, col in ((symbols.real.ravel(), 0), (symbols.imag.ravel(), 2)):
        rank = np.clip(np.round((axis * np.sqrt(10.0) + 3) / 2), 0, 3).astype(np.int64)
        out[:, col : col + 2] = _AXIS_BITS_BY_LEVEL_RANK[rank]
    return out.reshape(-1)


def interleave(bits, n_cbps: int) -> np.ndarray:
    """Per-symbol block interleaver: i = (n_cbps/16)*(k mod 16) + k//16."""
    bits = np.asarray(bits)
    if bits.size != n_cbps or n_cbps % 16 != 0:
        raise ValueError("interleaver works on one symbol of n_cbps bits")
    k = np.arange(n_cbps)
    perm = (n_cbps // 16) * (k % 16) + k // 16
    out = np.empty_like(bits)
    out[perm] = bits
    return out


def deinterleave(bits, n_cbps: int) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.size != n_cbps or n_cbps % 16 != 0:
        raise ValueError("deinterleaver works on one symbol of n_cbps bits")
    k = np.arange(n_cbps)
    perm = (n_cbps // 16) * (k % 16) + k // 16
    return bits[perm]


@dataclass(frozen=True)
class OfdmFrame:
    """K-user frame: staggered per-user LTS preamble, then joint payload.

    tx_streams holds the transmitted samples [users, samples];
    tx_grids the payload QAM symbols [users, payload symbols, data bins].
    """

    cfg: OfdmConfig
    payload_bits: list
    payload_lens: list
    num_payload_symbols: int
    lts_slots: list
    tx_streams: np.ndarray = field(repr=False)
    tx_grids: np.ndarray = field(repr=False)

    @property
    def num_users(self) -> int:
        return len(self.payload_bits)

    @property
    def preamble_symbols(self) -> int:
        return self.num_users * self.cfg.lts_repeats

    @property
    def total_symbols(self) -> int:
        return self.preamble_symbols + self.num_payload_symbols

    @property
    def payload_airtime_s(self) -> float:
        return self.num_payload_symbols * self.cfg.symbol_duration_s

    def user_lts_symbol_indices(self, user: int) -> np.ndarray:
        start = self.lts_slots[user]
        return np.arange(start, start + self.cfg.lts_repeats)


def _symbol_time(cfg: OfdmConfig, grid_f: np.ndarray) -> np.ndarray:
    body = np.fft.ifft(grid_f) * cfg.tx_scale
    return np.concatenate([body[-cfg.cp_len :], body])


def build_frame(cfg: OfdmConfig, payload_bits: list) -> OfdmFrame:
    """Encode, interleave, map and frame one packet per user.

    Payloads whose codeword does not fill a whole number of OFDM symbols
    are zero-padded; the original length is recorded so recovery can strip
    the pad. All users are framed to the longest user's symbol count.
    """
    if not payload_bits:
        raise ValueError("need at least one user payload")
    K = len(payload_bits)
    cbps = cfg.coded_bits_per_symbol
    coded = [conv_encode(b) for b in payload_bits]
    num_payload_symbols = max(int(np.ceil(c.size / cbps)) for c in coded)
    if num_payload_symbols == 0:
        raise ValueError("empty payload")
    preamble = K * cfg.lts_repeats
    total = preamble + num_payload_symbols
    grids = np.zeros((K, num_payload_symbols, len(DATA_BINS)), dtype=np.complex128)
    streams = np.zeros((K, total, cfg.symbol_len), dtype=np.complex128)
    for u in range(K):
        padded = np.concatenate(
            [coded[u], np.zeros(num_payload_symbols * cbps - coded[u].size, dtype=np.int64)]
        )
        sym_time = streams[u]
        lts_grid = np.zeros(cfg.fft_size, dtype=np.complex128)
        lts_grid[:] = LTS_FREQ
        for r in range(cfg.lts_repeats):
            sym_time[u * cfg.lts_repeats + r] = _symbol_time(cfg, lts_grid)
        for s in range(num_payload_symbols):
            chunk = interleave(padded[s * cbps : (s + 1) * cbps], cbps)
            qam = qam16_map(chunk)
            grids[u, s] = qam
            grid_f = np.zeros(cfg.fft_size, dtype=np.complex128)
            grid_f[DATA_BINS] = qam
            grid_f[PILOT_BINS] = PILOT_VALUES
            sym_time[preamble + s] = _symbol_time(cfg, grid_f)
    return OfdmFrame(
        cfg=cfg,
        payload_bits=[np.asarray(b, dtype=np.int64) for b in payload_bits],
        payload_lens=[len(b) for b in payload_bits],
        num_payload_symbols=num_payload_symbols,
        lts_slots=[u * cfg.lts_repeats for u in range(K)],
        tx_streams=streams.reshape(K, -1),
        tx_grids=grids,
    )


def recover_bits(frame: OfdmFrame, equalized_grids: np.ndarray) -> list:
    """Invert the TX chain on per-user equalized data-bin grids
    [users][payload symbols][data bins] -> payload bit vectors."""
    grids = np.asarray(equalized_grids)
    cfg = frame.cfg
    cbps = cfg.coded_bits_per_symbol
    want = (frame.num_users, frame.num_payload_symbols, len(DATA_BINS))
    if grids.shape != want:
        raise ValueError(f"expected grid shape {want}, got {grids.shape}")
    out = []
    for u in range(frame.num_users):
        chunks = [
            deinterleave(qam16_demap(grids[u, s]), cbps)
            for s in range(frame.num_payload_symbols)
        ]
        coded = np.concatenate(chunks)[: 2 * (frame.payload_lens[u] + _TAIL)]
        out.append(viterbi_decode(coded)[: frame.payload_lens[u]])
    return out


def symbol_spectra(x: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Split signals [..., samples] into symbols, strip CPs, FFT:
    [..., symbols, fft bins]."""
    if x.shape[-1] % cfg.symbol_len != 0:
        raise ValueError("stream is not a whole number of symbols")
    sym = x.reshape(*x.shape[:-1], -1, cfg.symbol_len)[..., cfg.cp_len :]
    return np.fft.fft(sym, axis=-1)
