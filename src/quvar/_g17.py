"""The '%.17g' text of a table of doubles, built with numpy array operations.

rows(table, end) returns what (row * n) % tuple(table.ravel().tolist()) does
for the row ','.join(['%.17g'] * ncols) + end, or None when a value is not a
finite x with 1e-4 <= |x| < 1e17: outside that range '%.17g' writes an
exponent (0.0 among them), which this code leaves to the % operator.

Each value's decimal exponent X and 17-digit integer D come out exact. Each
_P10 entry is the least double >= 10**e, so the double x lies in [10**X,
10**(X+1)) for the X its search finds. With p = 16 - X <= 20, 10**p is a
double, and Dekker's TwoProduct (Numer. Math. 18, 224, 1971) gives x * 10**p
as hi + lo exactly. There 1e16 <= hi < 1e17 is an even integer (> 2**53),
so D = hi + rint(lo) is the product rounded half to even, as '%.17g'
rounds, and D < 10**17: the largest double below 10**(X+1), scaled, is
more than 8 below 10**17.
"""

import numpy as np

_P10 = np.array([float(f"1e{e}") for e in range(-4, 18)])
_TEN = np.array([10.0**p for p in range(21)])
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")  # "00".."99"
_J17 = np.arange(17)
_LEAD = np.frombuffer(b"0.000", np.uint8)  # _LEAD[: 1 - e] leads a value with exponent e < 0


def _split(a):
    """Veltkamp's split: a = hi + lo with 26-bit halves."""
    s = a * 134217729.0  # 2**27 + 1
    hi = s - (s - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)


def _scaled(a, p):
    """hi, lo with hi + lo = a * 10**p exactly, hi = fl(a * 10**p)."""
    ah, al = _split(a)
    ch, cl = _TEN_HI[p], _TEN_LO[p]
    hi = a * _TEN[p]
    return hi, ((ah * ch - hi) + ah * cl + al * ch) + al * cl


def rows(table, end):
    """The rows of the (n, ncols) float table as text, or None (see above)."""
    n, ncols = table.shape
    v = table.ravel()
    a = np.abs(v)
    k = _P10.searchsorted(a, "right")  # X + 5; 0 below 1e-4, 22 from 1e17 and for nan
    if k.min() < 1 or k.max() > 21:
        return None
    x = k - 5
    hi, lo = _scaled(a, 21 - k)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    pairs = np.empty((d.size, 9), np.intp)  # D's two-digit groups, the first one 01..09
    for j in range(8, 0, -1):
        q = d // 100
        pairs[:, j] = d - q * 100
        d = q
    pairs[:, 0] = d
    digits = _PAIRS.take(pairs).view(np.uint8)[:, 1:]
    dot = np.full(d.size, 46, np.uint8)  # '.'
    # A value whose last digit is 0 loses its trailing zeros, bar the integer
    # digits, and the '.' when no fraction digit is left.
    zero = np.flatnonzero(digits[:, 16] == 48)
    if zero.size:
        kept = np.maximum(16 - (digits[zero] != 48)[:, ::-1].argmax(1), x[zero]) + 1
        digits[zero] *= _J17 < kept[:, None]
        dot[zero] *= kept > x[zero] + 1

    # One 24-byte slot per cell: sign, up to 22 characters, separator.
    w = 24 * ncols
    buf = np.zeros((n, w - 1 + len(end)), np.uint8)
    cells = buf[:, :w].reshape(n, ncols, 24)
    cells[:, :, 23] = 44  # ','
    buf[:, w - 1 :] = np.frombuffer(end.encode(), np.uint8)
    cells[:, :, 0] = (v < 0).reshape(n, ncols) * np.uint8(45)  # '-'
    x, digits, dot = x.reshape(n, ncols), digits.reshape(n, ncols, 17), dot.reshape(n, ncols)
    for c in range(ncols):
        present = np.zeros(21, bool)
        present[x[:, c] + 4] = True
        groups = np.flatnonzero(present) - 4
        for e in groups.tolist():
            r = x[:, c] == e if len(groups) > 1 else slice(None)
            if e < 0:  # 0.000ddd
                cells[r, c, 1 : 2 - e] = _LEAD[: 1 - e]
                cells[r, c, 2 - e : 19 - e] = digits[r, c]
            else:  # ddd.ddd, and no '.' after 17 integer digits
                cells[r, c, 1 : 2 + e] = digits[r, c, : e + 1]
                cells[r, c, 2 + e] = dot[r, c] if e < 16 else 0
                cells[r, c, 3 + e : 19] = digits[r, c, e + 1 :]
    return buf.tobytes().translate(None, b"\0").decode("ascii")
