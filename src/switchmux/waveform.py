"""802.11-style OFDM transmitter and receiver per user.

64 subcarriers (48 data, 4 pilots, 12 nulls), 16-sample cyclic prefix,
Gray-coded QAM-16, rate-1/2 constraint-7 convolutional code (generators
133/171 octal, zero-tail) with hard-decision Viterbi, and per-symbol block
interleaving.  The numerology is fixed and lives in module constants
(FFT_SIZE, CP_LEN, SYMBOL_LEN, CODED_BITS_PER_SYMBOL, INFO_BITS_PER_SYMBOL,
TX_SCALE); only the bandwidth and the training repeats vary, and both come
from the experiment config.  The payload is one 0/1 int array [users, bits]
of whole symbols, bits = payload_bits_for_symbols(P) for P payload symbols.
A frame is two plain arrays: the transmitted samples [users, samples] and
the payload QAM grids [users, P, data bins]; leading axes stack independent
frames (an FDMA trial's one-user frames).  Frames start with per-user long
training symbols in non-overlapping time slots so each user's channel can
be estimated cleanly.  The receiver demaps and deinterleaves a whole
[users, P, data bins] grid at once, as uint8 bits, and decodes all its
codewords in one batched radix-4 Viterbi pass back to [users, bits]: two
trellis steps per add-compare-select, with each decision kept in the path
metric's low bits.
The runner passes a whole task block's grids, tens of codewords, so the
pass keeps its memory bounded by the batch: the branch metrics are gathered
a few passes at a time into one reused buffer, and the decisions are kept
as one uint8 per state and six steps.
"""

from __future__ import annotations

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
# levels -3,-1,+1,+3; uint8, the decoder's dtype
_AXIS_BITS_BY_LEVEL_RANK = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)

CONV_G0 = 0o133
CONV_G1 = 0o171
CONV_K = 7
_TAIL = CONV_K - 1


# The fixed 802.11a numerology: 64-point FFT, 16-sample prefix, 48 data
# bins of QAM-16 (4 coded bits each) under the rate-1/2 code.
FFT_SIZE = 64
CP_LEN = 16
SYMBOL_LEN = FFT_SIZE + CP_LEN
CODED_BITS_PER_SYMBOL = 4 * len(DATA_BINS)
INFO_BITS_PER_SYMBOL = CODED_BITS_PER_SYMBOL // 2
# makes the mean time-domain sample power of a symbol exactly 1
TX_SCALE = FFT_SIZE / np.sqrt(len(USED_BINS))


def payload_bits_for_symbols(num_symbols: int) -> int:
    """Largest zero-tail-terminated payload that fills num_symbols."""
    return INFO_BITS_PER_SYMBOL * num_symbols - _TAIL


def _parity_table() -> np.ndarray:
    bits = np.arange(128, dtype=np.uint8)
    return np.array([bin(b).count("1") & 1 for b in bits], dtype=np.int64)


_PARITY = _parity_table()


def _branch_metrics() -> np.ndarray:
    """Hamming distance [received pair, choice, input bit, j] int8.

    State s = 32·b + j is entered from predecessor 2·j + choice with input
    bit b, so the 7-bit encoder register on that branch is 2·s + choice.
    """
    reg = 2 * np.arange(64)[None, :] + np.arange(2)[:, None]  # [choice, s]
    sym = 2 * _PARITY[reg & CONV_G0] + _PARITY[reg & CONV_G1]
    pair = np.arange(4)[:, None, None]
    dist = ((pair ^ sym) & 1) + ((pair ^ sym) >> 1)
    return dist.reshape(4, 2, 2, 32).astype(np.int8)


_BRANCH_METRICS = _branch_metrics()


def _two_step_branch_metrics() -> np.ndarray:
    """Two trellis steps' Hamming distance shifted left by 6, plus the
    decision code q << 2k: [k, 4·first pair + second pair, q, s] int32.

    State s is entered from two-step predecessor 4·(s & 15) + q, q = 2·c2 +
    c1, through 2·(s & 31) + c2 with choice c1 at the first step and c2 at
    the second; k is the pass's place in its 6-step block.
    """
    s = np.arange(64)
    q = np.arange(4)[:, None]
    dist = _BRANCH_METRICS.reshape(4, 2, 64)  # [pair, choice, entered state]
    first = dist[:, q & 1, 2 * (s & 31) + (q >> 1)]  # [pair, q, s]
    second = dist[:, q >> 1, s]
    both = (first[:, None] + second[None, :]).astype(np.int32) << 6
    k = np.arange(3)[:, None, None, None, None]
    return (both + (q << 2 * k)).reshape(3, 16, 4, 64).astype(np.int32)


_TWO_STEP_BRANCH_METRICS = _two_step_branch_metrics()
# A candidate's distance is at most 2 per step, so below 2 * _MAX_STEPS, or
# _START_PENALTY + 14 for the candidates of the first 7 steps that still
# carry the penalty.  Both stay below 2**25, so the distance shifted by 6
# plus its 6 history bits fits int32.
_START_PENALTY = 2**24
_MAX_STEPS = 2**24 - 1
# _TWO_STEP_BRANCH_METRICS as [q, k·16 + pair quad, s], the layout one take
# gathers a run of passes from, q leading
_GATHER_TABLE = np.ascontiguousarray(
    _TWO_STEP_BRANCH_METRICS.reshape(48, 4, 64).transpose(1, 0, 2)
)
# the decoder gathers the branch metrics of this many bytes at a time, so
# its buffer stays in cache and bounded whatever the batch
_GATHER_BYTES = 2**18


def _binary(bits, what: str) -> np.ndarray:
    """bits as a 2-d uint8 array, refused unless every entry is a 0/1 bool
    or integer; the dtype and the values are checked before any cast, so a
    float input is refused, never truncated."""
    bits = np.asarray(bits)
    if bits.dtype.kind not in "biu":
        raise ValueError(f"{what} must be 0/1 integers, got dtype {bits.dtype}")
    if bits.ndim != 2:
        raise ValueError(f"{what} must be [codewords, bits]")
    if ((bits < 0) | (bits > 1)).any():
        raise ValueError(f"{what} must be 0/1")
    return bits.astype(np.uint8, copy=False)


def conv_encode(bits) -> np.ndarray:
    """Rate-1/2 constraint-7 encoder, zero-tail terminated: payloads
    [codewords, bits] -> codewords [codewords, 2 * (bits + 6)]."""
    bits = _binary(bits, "bits")
    n = bits.shape[1]
    steps = n + _TAIL
    padded = np.zeros((len(bits), steps + _TAIL), dtype=np.uint8)
    padded[:, _TAIL : _TAIL + n] = bits
    # the 7-bit encoder register at step t holds input bit t - j in bit 6 - j
    reg = sum(padded[:, _TAIL - j : _TAIL - j + steps] << (_TAIL - j) for j in range(CONV_K))
    out = np.stack([_PARITY[reg & CONV_G0], _PARITY[reg & CONV_G1]], axis=-1)
    return out.reshape(len(bits), 2 * steps)


def viterbi_decode(coded) -> np.ndarray:
    """Hard-decision Viterbi for conv_encode's code.

    ``coded`` is a batch [codewords, coded bits] of 0/1 integers, of equal
    even length, at most 2 * _MAX_STEPS bits; returns the payload bits
    [codewords, bits] int64 with the tail removed.  All codewords share one
    radix-4 add-compare-select pass, two trellis steps per pass.  Each path
    metric is its distance shifted left by 6 over the decisions of its
    current 6-step block, so one minimum over the four two-step candidates
    picks the shortest, and among equals the smaller (second, first) step
    choice: at every step a survivor switches to the odd predecessor only
    when that is strictly shorter, argmin's first-index tie rule.  After
    each block the 6 decision bits of a state, its survivor's state 6 steps
    back, are kept as one uint8; the traceback follows them a block at a
    time.

    Memory grows as codewords x steps, about 30 bytes each (the uint8
    decisions take 64 / 6, the int64 output most of the rest), plus one
    branch-metric buffer that gathers as many passes as fit _GATHER_BYTES
    (at least one) and is reused for all of them.
    """
    coded = _binary(coded, "coded bits")
    if coded.shape[1] % 2 != 0:
        raise ValueError("coded bits must be [codewords, coded bits] of even length")
    n, steps = coded.shape[0], coded.shape[1] // 2
    if steps <= _TAIL:
        raise ValueError("too short to contain a terminated codeword")
    if steps > _MAX_STEPS:
        raise ValueError(f"{steps} trellis steps overflow the path metric; at most {_MAX_STEPS}")
    pairs = 2 * coded[:, 0::2] + coded[:, 1::2]
    first = steps % 2  # an odd count takes its first step in closed form
    metrics = np.full((n, 64), _START_PENALTY << 6, dtype=np.int32)
    metrics[:, 0] = 0
    if first:  # from state 0 into states 0 and 32
        metrics[:, ::32] = _BRANCH_METRICS[pairs[:, 0], 0, :, 0].astype(np.int32) << 6
    passes = (steps - first) // 2
    # [passes, codewords] rows of _GATHER_TABLE: the pass's place k in its
    # block and the quad of received pairs it reads
    rows = (np.arange(passes) % 3 * 16)[:, None] + (
        4 * pairs[:, first::2].T + pairs[:, first + 1 :: 2].T
    ).astype(np.intp)
    # pred[q, i, 0, lo] is metrics[i, 4·lo + q], the predecessor of 16·hi + lo
    pred = metrics.reshape(n, 16, 4).transpose(2, 0, 1)[:, :, None, :]
    survivors = metrics.reshape(n, 4, 16)
    cand = np.empty((4, n, 4, 16), dtype=np.int32)
    history = np.empty((passes // 3, n, 64), dtype=np.uint8)
    # [q, passes of one gather, codewords, s]; 1 KiB per pass and codeword
    gather = max(1, min(passes, _GATHER_BYTES // (1024 * max(n, 1))))
    branch = np.empty((4, gather, n, 64), dtype=np.int32)
    # the same buffer pass by pass, state s = 16·hi + lo split for pred
    by_pass = branch.reshape(4, gather, n, 4, 16).transpose(1, 0, 2, 3, 4)
    # every pass writes into the buffers above and allocates nothing
    for start in range(0, passes, gather):
        stop = min(start + gather, passes)
        # take's default mode="raise" buffers out; every row is in range
        _GATHER_TABLE.take(rows[start:stop], axis=1, out=branch[:, : stop - start], mode="clip")
        for p, b in enumerate(by_pass[: stop - start], start):
            np.add(pred, b, out=cand)
            np.minimum.reduce(cand, axis=0, out=survivors)
            if p % 3 == 2:  # a block ends: keep its decision bits and clear them
                np.bitwise_and(metrics, 63, out=history[p // 3], casting="unsafe")
                metrics &= -64
    # the zero tail ends in state 0, whose decision bits are its state at
    # the end of the last whole block (0 when no partial block follows);
    # walk the history back one block at a time
    blocks = len(history)
    states = np.empty((blocks + 1, n), dtype=np.uint8)
    states[-1] = metrics[:, 0] & 63
    codewords = np.arange(n)
    for b in range(blocks - 1, -1, -1):
        states[b] = history[b, codewords, states[b + 1]]
    # a block's end state holds its 6 input bits, the newest in bit 5;
    # states[0] is the state after the closed-form step (or the start)
    bits = np.unpackbits(states.T[:, :, None], axis=2, count=6, bitorder="little")
    return bits.reshape(n, 6 * blocks + 6)[:, 6 - first : steps - first].astype(np.int64)


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
    """Hard nearest-neighbor demapping back to bits, as uint8 0/1."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = np.empty((symbols.size, 4), dtype=np.uint8)
    for axis, col in ((symbols.real.ravel(), 0), (symbols.imag.ravel(), 2)):
        rank = np.clip(np.round((axis * np.sqrt(10.0) + 3) / 2), 0, 3).astype(np.uint8)
        out[:, col : col + 2] = _AXIS_BITS_BY_LEVEL_RANK[rank]
    return out.reshape(-1)


def _interleaver_perm(bits: np.ndarray, n_cbps: int) -> np.ndarray:
    if bits.ndim < 1 or bits.shape[-1] != n_cbps or n_cbps % 16 != 0:
        raise ValueError("interleaver works on symbols of n_cbps bits [..., n_cbps]")
    k = np.arange(n_cbps)
    return (n_cbps // 16) * (k % 16) + k // 16


def interleave(bits, n_cbps: int) -> np.ndarray:
    """Per-symbol block interleaver: i = (n_cbps/16)*(k mod 16) + k//16,
    applied along the last axis."""
    bits = np.asarray(bits)
    perm = _interleaver_perm(bits, n_cbps)
    out = np.empty_like(bits)
    out[..., perm] = bits
    return out


def deinterleave(bits, n_cbps: int) -> np.ndarray:
    bits = np.asarray(bits)
    return bits[..., _interleaver_perm(bits, n_cbps)]


def _symbol_time(spectra: np.ndarray) -> np.ndarray:
    """Symbols [..., fft bins] -> time samples with cyclic prefix [..., SYMBOL_LEN]."""
    body = np.fft.ifft(spectra) * TX_SCALE
    return np.concatenate([body[..., -CP_LEN:], body], axis=-1)


def build_frame(payload_bits, lts_repeats: int) -> tuple:
    """Encode, interleave, map and frame one packet per user.

    payload_bits is [..., users, payload_bits_for_symbols(P)] for some
    P >= 1; leading axes stack independent frames.  Returns (tx_streams
    [..., users, samples], tx_grids [..., users, P, data bins]).  A frame
    opens with lts_repeats training symbols per user, user u's in symbols
    u*lts_repeats .. (u+1)*lts_repeats - 1 with every other user of the
    frame silent, then all its users send their payloads at once.
    """
    payload_bits = np.asarray(payload_bits)
    if payload_bits.ndim < 2 or 0 in payload_bits.shape[:-1]:
        raise ValueError("payload bits must be [users, bits] with at least one user")
    *lead, K, n = payload_bits.shape
    symbols = (n + _TAIL) // INFO_BITS_PER_SYMBOL
    if symbols < 1 or n != payload_bits_for_symbols(symbols):
        raise ValueError(
            f"{n} payload bits do not fill whole symbols; send payload_bits_for_symbols(P)"
        )
    coded = conv_encode(payload_bits.reshape(-1, n))
    coded = coded.reshape(*lead, K, symbols, CODED_BITS_PER_SYMBOL)
    chunks = interleave(coded, CODED_BITS_PER_SYMBOL)
    grids = qam16_map(chunks).reshape(*lead, K, symbols, len(DATA_BINS))
    spectra = np.zeros((*lead, K, symbols, FFT_SIZE), dtype=np.complex128)
    spectra[..., DATA_BINS] = grids
    spectra[..., PILOT_BINS] = PILOT_VALUES
    preamble = K * lts_repeats
    streams = np.zeros((*lead, K, preamble + symbols, SYMBOL_LEN), dtype=np.complex128)
    lts = _symbol_time(LTS_FREQ)
    for u in range(K):
        streams[..., u, u * lts_repeats : (u + 1) * lts_repeats, :] = lts
    streams[..., preamble:, :] = _symbol_time(spectra)
    return streams.reshape(*lead, K, -1), grids


def recover_bits(grids: np.ndarray) -> np.ndarray:
    """Invert the TX chain on equalized data-bin grids
    [users, payload symbols, data bins] -> payload bits [users, bits].

    The whole grid is demapped and deinterleaved at once, and every user's
    codeword goes through one viterbi_decode call.  Axis 0 may stack the
    users of many trials: each codeword is decoded on its own.
    """
    grids = np.asarray(grids)
    if grids.ndim != 3 or grids.shape[2] != len(DATA_BINS):
        raise ValueError(f"expected grids [users, symbols, data bins], got {grids.shape}")
    users, symbols = grids.shape[:2]
    cbps = CODED_BITS_PER_SYMBOL
    coded = deinterleave(qam16_demap(grids).reshape(users, symbols, cbps), cbps)
    return viterbi_decode(coded.reshape(users, symbols * cbps))


def symbol_spectra(x: np.ndarray) -> np.ndarray:
    """Split signals [..., samples] into symbols, strip CPs, FFT:
    [..., symbols, fft bins]."""
    if x.shape[-1] % SYMBOL_LEN != 0:
        raise ValueError("stream is not a whole number of symbols")
    sym = x.reshape(*x.shape[:-1], -1, SYMBOL_LEN)[..., CP_LEN:]
    return np.fft.fft(sym, axis=-1)
