"""Polar code construction from Bhattacharyya-parameter evolution.

Evolves the channel reliability through n polarization levels, freezes
every position whose synthetic channel fails the error-probability
threshold, and provides the 1/N^3 and mid-zone reliability bands that the
paper's proof charges against pruned decoding trees.
"""

from __future__ import annotations

import binascii
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import BmsChannel, ChannelKind, h2, polarize

# Materializing 2^n leaves holds the last two levels, 8 bytes a leaf: 192 MB
# at this cap.  The latency-module scans go further: their memory is
# O(pruned nodes) and their time O(n * pruned nodes).
MAX_MATERIALIZED_N = 24

CODE_FILE_MAGIC = "polarcode v1"


@dataclass(frozen=True, eq=False)
class PolarCode:
    """A constructed polar code: frozen mask plus the channel it came from.

    frozen[i] is True when leaf i is a frozen position.  Leaf order is the
    natural factor-graph order: leaf i-1 corresponds to the transform path
    given by the binary expansion of i-1, most significant bit first, with
    bit 0 the worse branch.  No bit-reversal anywhere.  frozen is a
    read-only copy of the mask the code was made from.
    """

    channel: BmsChannel
    n: int
    pe: float
    frozen: np.ndarray

    def __post_init__(self):
        n = _check_n(self.n)
        _check_pe(self.pe)
        fr = np.array(self.frozen, dtype=bool)  # a copy: the caller's array may change
        if fr.shape != (2 ** n,):
            raise ValueError(f"frozen mask must have length 2^{n}")
        fr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "frozen", fr)

    @property
    def N(self) -> int:
        return 2 ** self.n

    @property
    def k(self) -> int:
        return int(self.N - int(self.frozen.sum()))

    @property
    def rate(self) -> float:
        return self.k / self.N


def _as_int(value, name: str, least: Optional[int] = None) -> int:
    """value as a Python int; rejects, naming the argument, a value that is not
    an integer, or that is below `least` when one is given.

    numpy's integers pass; floats, even integral ones, and booleans do not.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_n(n) -> int:
    """n as a Python int; rejects an n that is not an integer >= 1 (numpy's integers pass)."""
    return _as_int(n, "n", 1)


def _check_pe(pe) -> None:
    """Reject an error target pe outside the open interval (0, 1), and NaN."""
    if not 0.0 < pe < 1.0:
        raise ValueError(f"pe must be in (0, 1), got {pe}")


def leaf_reliabilities(channel: BmsChannel, n: int) -> np.ndarray:
    """The 2^n leaf Bhattacharyya parameters in leaf order: n polarization levels.

    Capped at n = 24 because it holds full levels in memory.
    """
    n = _check_n(n)
    if n > MAX_MATERIALIZED_N:
        raise ValueError(f"n={n} too large to materialize; use the latency scans")
    z = np.array([channel.z0], dtype=np.float64)
    for _ in range(n):
        z = polarize(z)
    return z


def build_code(channel: BmsChannel, n: int, pe: float) -> PolarCode:
    """Construct the polar code for (channel, N=2^n, pe).

    Position i is frozen exactly when its leaf reliability Z_i >= pe/N;
    ties freeze (information positions require strictly better channels).
    """
    _check_pe(pe)
    frozen = leaf_reliabilities(channel, n) >= pe / (2 ** n)
    return PolarCode(channel, n, pe, frozen)


def _check_mask(frozen) -> np.ndarray:
    """frozen as a bool array; rejects a mask that is not 1-D with a power-of-two length."""
    fr = np.asarray(frozen, dtype=bool)
    if fr.ndim != 1 or fr.size == 0 or fr.size & (fr.size - 1):
        raise ValueError(f"frozen mask must be 1-D with a power-of-two length, got {fr.shape}")
    return fr


def code_from_frozen(channel: BmsChannel, frozen, pe: float) -> PolarCode:
    """Wrap an explicit frozen mask (e.g. a textbook example code)."""
    fr = _check_mask(frozen)
    return PolarCode(channel, fr.size.bit_length() - 1, pe, fr)


# ---------------------------------------------------------------------------
# binary entropy inverse and the proof's reliability bands
# ---------------------------------------------------------------------------

def h2_inv(y: float) -> float:
    """Inverse of the binary entropy on [0, 1/2], bisected to 1e-12.

    The endpoints are returned exactly; float h2 is too flat near x = 1/2
    for bisection to pin them tighter than a few 1e-9.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"h2_inv argument must be in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h2(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def midzone_interval(n: int, gamma: float, mu: float) -> tuple[float, float]:
    """The [2^(-2^(n*g*h)), 1 - 2^(-2^(n*g*h))] un-polarized band.

    h = h2_inv((gamma*(mu+1) - 1) / (gamma*mu)); gamma must lie strictly
    inside (1/(1+mu), 1) for the band to be defined.
    """
    if not (1.0 / (1.0 + mu)) < gamma < 1.0:
        raise ValueError(f"gamma must be in (1/(1+mu), 1) = ({1/(1+mu):.4f}, 1), got {gamma}")
    hexp = h2_inv((gamma * (mu + 1.0) - 1.0) / (gamma * mu))
    edge = 2.0 ** -(2.0 ** (n * gamma * hexp))
    return edge, 1.0 - edge


def cube_interval(N: int) -> tuple[float, float]:
    """The [1/N^3, 1 - 1/N^3] thresholds used to force Rate-0/Rate-1 nodes.

    For pe >= 1/N^2, a node of the block-length-N code with Z <= 1/N^3 is
    Rate-1 (all information) and one with Z >= 1 - 1/N^3 is Rate-0 (all
    frozen).
    """
    N = _as_int(N, "N", 2)
    return 1.0 / N ** 3, 1.0 - 1.0 / N ** 3


# ---------------------------------------------------------------------------
# code file format
# ---------------------------------------------------------------------------
#   line 1: "polarcode v1"
#   line 2: "<kind> <param> <capacity> <pe> <n>"
#   line 3: frozen bitvector as hex, most significant nibble = leaves 0..3


def _frozen_to_hex(frozen: np.ndarray) -> str:
    return np.packbits(frozen).tobytes().hex()[:(frozen.size + 3) // 4]


def _hex_to_frozen(text: str, N: int) -> np.ndarray:
    expected = (N + 3) // 4
    if len(text) != expected:
        raise ValueError(f"frozen string has {len(text)} nibbles, expected {expected}")
    try:  # unlike bytes.fromhex, unhexlify rejects whitespace between bytes
        packed = binascii.unhexlify(text + "0" * (len(text) % 2))
    except ValueError:  # binascii.Error, or a character outside ASCII
        bad = "".join(sorted(set(text).difference("0123456789abcdefABCDEF")))
        raise ValueError(f"frozen string has non-hex characters {bad!r}") from None
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    if bits[N:].any():
        raise ValueError(f"frozen string has nonzero padding bits after N={N}")
    return bits[:N].astype(bool)


def code_to_text(code: PolarCode) -> str:
    line2 = (f"{code.channel.kind.value} {code.channel.param!r} "
             f"{code.channel.capacity!r} {code.pe!r} {code.n}")
    return "\n".join([CODE_FILE_MAGIC, line2, _frozen_to_hex(code.frozen)]) + "\n"


def code_from_text(text: str) -> PolarCode:
    lines = text.strip().splitlines()
    if len(lines) != 3:
        raise ValueError(f"code file must have 3 lines, got {len(lines)}")
    if lines[0].strip() != CODE_FILE_MAGIC:
        raise ValueError(f"bad magic line {lines[0]!r}, expected {CODE_FILE_MAGIC!r}")
    fields = lines[1].split()
    if len(fields) != 5:
        raise ValueError(f"header line must have 5 fields, got {len(fields)}")
    kind = ChannelKind(fields[0])
    param = float(fields[1])
    stored_capacity = float(fields[2])
    pe = float(fields[3])
    n = _check_n(int(fields[4]))
    channel = BmsChannel(kind, param)
    if not abs(channel.capacity - stored_capacity) <= 1e-6:  # NaN too
        raise ValueError(
            f"stored capacity {stored_capacity} inconsistent with {kind.value}({param})"
        )
    hex_line = lines[2].strip()
    if n > len(hex_line).bit_length() + 1:  # then N = 2^n needs 2^(n-2) > len nibbles
        raise ValueError(f"frozen string has {len(hex_line)} nibbles, too few for n={n}")
    frozen = _hex_to_frozen(hex_line, 2 ** n)
    return PolarCode(channel, n, pe, frozen)


def save_code(code: PolarCode, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(code_to_text(code))


def load_code(path) -> PolarCode:
    with open(path, "r", encoding="ascii") as fh:
        return code_from_text(fh.read())
