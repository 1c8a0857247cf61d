"""Float tables printed as CSV rows through '%.12g', a block of rows at a time.

csv_rows(table) gives, byte for byte, what '%.12g' % cell gives for each
cell of an (n, ncol) float array, cells joined by ',' and rows ended by
'\n'.  Only the curve tables use it; it loads numpy.  It works on blocks of
BLOCK_ROWS rows, in numpy:

- e = floor(log10 |x|), and m = |x| * 10^(11 - e) with an exact power of
  ten (10^0 .. 10^22), so m is the exact product rounded once.
- q = rint(m) holds the 12 significant digits; a carry to 1e12 gives 1e11
  with e + 1.  Three 4-digit groups of q index a table of ASCII digits, and
  the trailing zeros are dropped.
- Each cell is laid out in five little-endian 8-byte words: the sign and
  the '0.000' prefix of a fixed-point number below 1; the 12 digits, each
  followed by a slot for the point, where one '.' is put; and 'e+XX' with
  the ',' or newline after the cell.  Every part comes from a table indexed
  by e, the digit count or a group.  Unused bytes are NUL, which is deleted
  from the block's bytes at the end.

Rounding is monotone, and every half-integer below 1e12 is a double, so m
lies on the same side of each half-integer as the exact product, or on it:
rint(m) is the correctly rounded q unless m is a half-integer.  Those cells,
zero of either sign, NaN and inf, |x| with e outside [-11, 33] (where
10^(11 - e) is not exact), and m outside [1e11, 1e12) (log10 one off next to
a power of ten) hold the text of '%.12g' itself instead, from the cell's
first byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_ROWS", "csv_rows"]

# rows per numpy pass, small enough for a block's arrays to stay in cache: on
# the 50001-row dispersion table, 4096-row blocks took about half the time
# of 16384-row ones
BLOCK_ROWS = 4096

NUMBER = "%.12g"
_WORD = np.dtype("<u8")


def _words(rows) -> np.ndarray:
    """Rows of 8k bytes as rows of k little-endian words."""
    return np.ascontiguousarray(rows, np.uint8).view(_WORD)


# _MUL, _DIV, _FILL, _LEAD and _TAIL take a printed exponent E in [-12, 34]
# at index E + 12

# |x| * MUL / DIV = |x| * 10^(11 - E) with one rounding, for E in [-11, 33]:
# each is an exact power of ten, and one of the two is 1
_MUL = np.array([float(10 ** min(max(11 - e, 0), 22)) for e in range(-12, 35)])
_DIV = np.array([float(10 ** min(max(e - 11, 0), 22)) for e in range(-12, 35)])

# 0 .. 9999 as words of four ASCII digits, each followed by a NUL point slot,
# from the digits at thousands, hundreds, tens and ones on axes 0 .. 3
_D = np.arange(10)
_DIGITS = (48 + _D[:, None]).astype(np.uint64) << np.arange(0, 64, 16, dtype=np.uint64)
_DIGITS = (_DIGITS[:, None, None, None, 0] | _DIGITS[:, None, None, 1]
           | _DIGITS[:, None, 2] | _DIGITS[:, 3]).ravel()
# the digits of q up to its last nonzero one, by group j = 0, 1, 2 at index
# 10000 j + group: 4 j + those of the group, or 0 for a group of 0
_KEPT = np.maximum(np.maximum((_D > 0)[:, None, None, None] * 1, (_D > 0)[:, None, None] * 2),
                   np.maximum((_D > 0)[:, None] * 3, (_D > 0) * 4)).ravel()
_KEPT = ((_KEPT + 4 * np.arange(3)[:, None]) * (_KEPT > 0)).ravel()
_GROUP = 10000 * np.arange(3)[:, None]

# what is added to the three digit words of q with nd significant digits,
# at index 13 (E + 12) + nd: '0' back to NUL past the digits shown (a whole
# number shows its zeros up to the point), and a '.' after digit E (after
# the first one if E is printed), where a digit follows it
_E, _ND = np.arange(-12, 35)[:, None], np.arange(13)
_WHOLE = (_E >= 0) & (_E < 12)
_PRINTED = (_E < -4) | (_E >= 12)  # E itself is printed
_SHOWN = np.where(_WHOLE, np.maximum(_ND, _E + 1), _ND)
_AFTER = np.where(_WHOLE, _E, 0)
_POINT = np.where((_ND > _AFTER + 1) & (_WHOLE | _PRINTED), _AFTER, -1)
_SLOT = np.arange(24)
_FILL = (_words((_SLOT == 2 * _POINT[..., None] + 1) * ord("."))
         - _words(((_SLOT % 2 == 0) & (_SLOT // 2 >= _SHOWN[..., None])) * ord("0"))
         ).reshape(-1, 3).T.copy()

# the sign and the '0.' prefix of a number below 1 (E in -4 .. -1), at index
# E + 12, and 47 on for a negative number
_LEAD = np.frombuffer(b"".join(
    b"\0\0" + sign + b"0.000"[:1 - e].rjust(5, b"\0") if -4 <= e < 0 else bytes(7) + sign
    for sign in (b"\0", b"-") for e in range(-12, 35)), _WORD)
# 'e+XX' where E is printed, then the separator: index 2 (E + 12), plus 1
# in the last column
_TAIL = np.frombuffer(b"".join(
    (b"" if -4 <= e < 12 else b"e%+03d" % e).ljust(4, b"\0") + sep
    for e in range(-12, 35) for sep in (b",\0\0\0", b"\n\0\0\0")), _WORD)


def _block(x: np.ndarray, cells: np.ndarray) -> str:
    """The CSV rows of one C-contiguous (rows, ncol) float64 block, laid out
    in the first rows * ncol rows of cells."""
    rows, ncol = x.shape
    flat = x.ravel()
    ax = np.abs(flat)
    ok = np.isfinite(ax) & (ax != 0.0)
    ax[~ok] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp) + 12  # e and every E below: + 12
    i = np.clip(e, 1, 45)
    m = ax * _MUL.take(i) / _DIV.take(i)
    q = np.rint(m)
    ok &= (i == e) & (m >= 1e11) & (m < 1e12) & (np.abs(m - q) < 0.5)
    carry = q == 1e12
    q[carry] = 1e11
    e += carry
    q[~ok] = 1e11
    e[~ok] = 12  # no exponent: the tail holds just the separator

    groups = np.empty((3, flat.size))
    np.floor(q / 1e8, out=groups[0])
    rest = q - groups[0] * 1e8
    np.floor(rest / 1e4, out=groups[1])
    np.subtract(rest, groups[1] * 1e4, out=groups[2])
    groups = groups.astype(np.intp)
    kept = _KEPT.take(groups + _GROUP)
    fill = 13 * e + np.maximum(np.maximum(kept[0], kept[1]), kept[2])

    cells = cells[:flat.size]
    cells[:, 0] = _LEAD.take(e + 47 * (flat < 0))
    for j in range(3):
        np.add(_DIGITS.take(groups[j]), _FILL[j].take(fill), out=cells[:, 1 + j])
    tail = 2 * e.reshape(rows, ncol)
    tail[:, -1] += 1
    cells[:, 4] = _TAIL.take(tail.ravel())
    bad = np.flatnonzero(~ok)
    if bad.size:  # the text '%.12g' gives, from the cell's first byte on
        text = b"".join((NUMBER % v).encode().ljust(32, b"\0") for v in flat[bad].tolist())
        cells[bad, :4] = np.frombuffer(text, _WORD).reshape(-1, 4)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def csv_rows(table) -> str:
    """The rows of an (n, ncol) float table as '%.12g' prints each cell,
    cells joined by ',' and each row ended by a newline."""
    x = np.asarray(table, dtype=np.float64)
    cells = np.empty((min(len(x), BLOCK_ROWS) * x.shape[1], 5), _WORD)
    return "".join(_block(np.ascontiguousarray(x[i:i + BLOCK_ROWS]), cells)
                   for i in range(0, len(x), BLOCK_ROWS))
