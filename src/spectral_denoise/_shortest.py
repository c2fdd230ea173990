"""Dense CSV text with ``repr``'s shortest round-trip digits, a block at a time.

``repr`` finds them by bignum arithmetic (Gay's ``dtoa``), ~1 us a value; this
writer takes ~0.19 us (a 1000x2000 matrix on a 2-core x86-64 host).  Here
``N = |x| 10**k`` in ``[1e16, 1e17)``, ``k = 16 - floor(log10|x|)``, is Dekker's
product with a double-double ``5**k``: exact where ``0 <= k <= 22``, else to ~1e-14.
The doubles that read back as ``x`` lie within ``H = ulp(x)/2 * 10**k`` of ``N``,
``0.55 < H < 11.2``, so the digits are the multiple of 100, else 10, else 1
nearest ``N`` within ``H``.  ``_guard`` (``repr``) takes inf, nan, subnormals, ties
and distances to ``H`` within ``1e-8``, a power of two whose digits lie below ``N``
(a lopsided interval), and each distinct value of a block that holds few.
"""

import numpy as np

#: Values per block, cut in C order across row ends.  Larger blocks were no faster, and
#: they, like numpy arrays per unproven value, grow the heap: a 1000x2000 write peaks at
#: 0.5 MB, and at 3.8 MB with 16384, near test_memory_stays_bounded's 4 MB bound.
BLOCK = 2048

_K = 330  # tables over k and E in [-_K, _K]; a normal double needs |k|, |E| <= 325


def _split(x):
    """Veltkamp's split at ``2**27 + 1``: ``x = hi + lo``, each of 26 bits."""
    t = 134217729.0 * x
    hi = t - (t - x)
    return hi, x - hi


_P5 = [(5**k, 1) if k >= 0 else (1, 5**-k) for k in range(-_K, _K + 1)]  # 5**k as a / b
_P5HI = np.array([a / b for a, b in _P5])  # and as a double-double hi + lo
_P5LO = np.array([(a * d - n * b) / (b * d) for (a, b), (n, d)
                  in zip(_P5, map(float.as_integer_ratio, _P5HI.tolist()))])
_P5SPLIT = np.array([_P5HI, _P5LO, *_split(_P5HI)])  # hi, lo and hi's halves, by k + _K


def _scaled(ax, E):
    """``(I, f, H)``: ``I + f = ax 10**k``, ``I`` whole and ``0 <= f < 1``; ``k = 16 - E``."""
    k = 16 - E
    hi, lo, h_hi, h_lo = np.take(_P5SPLIT, k + _K, axis=1)
    y = (ax.view(np.int64) + (k << 52)).view(np.float64)  # ax 2**k, exact
    p = y * hi
    y_hi, y_lo = _split(y)
    e = ((y_hi * h_hi - p) + y_hi * h_lo + y_lo * h_hi) + y_lo * h_lo + y * lo
    floor_e = np.floor(e)
    H = ((y.view(np.int64) & 2047 << 52) - (53 << 52)).view(np.float64) * hi  # ulp(y)/2 5**k
    return p.astype(np.int64) + floor_e.astype(np.int64), e - floor_e, H


# By N's last two whole digits: f + mid is N less the midpoint between the multiples
# of 100 (10) around it, and off takes N's whole part to the nearer of the two.
_R, _D = np.arange(100), np.arange(100) % 10
_ROUND = np.array([_R - 50.0, _D - 5.0, (_R >= 50) * 100.0 - _R, (_D >= 5) * 10.0 - _D]).T


def _shortest(a):
    """``(R, E, unproven)``: ``|a| = R 10**(E - 16)`` in ``R``'s digits, where proven."""
    ax = np.abs(a)
    normal = (ax >= 2.0**-1022) & (ax < np.inf)  # not zero, subnormal, inf or nan
    ax = np.where(normal, ax, 1.5)
    E = np.floor(np.log10(ax)).astype(np.intp)
    ip, f, H = _scaled(ax, E)
    if ip.min() < 10**16 or ip.max() >= 10**17:  # log10 erred by one
        E += (ip >= 10**17).astype(np.intp) - (ip < 10**16)
        ip, f, H = _scaled(ax, E)
    mid100, mid10, off100, off10 = np.take(_ROUND, ip - ip // 100 * 100, axis=0).T
    # The nearer multiple of 100 (10) lies within H iff g > 0; the first that does is kept.
    z10 = np.abs(f + mid10)
    g100, g10 = np.abs(f + mid100) + (H - 50.0), z10 + (H - 5.0)
    delta = np.where(g100 > 0, off100, np.where(g10 > 0, off10, f > 0.5))
    near = np.minimum(np.minimum(np.abs(g100), np.abs(g10)), np.minimum(z10, np.abs(f - 0.5)))
    # Below a power of two the interval is H/2: a candidate below N needs repr.
    unproven = (near <= 1e-8) | ~normal & (a != 0) | ((a.view(np.int64) << 12) == 0) & (delta < f)
    R = ip + delta.astype(np.int64)
    top = R == 10**17  # 9...9 rounded up
    return np.where(top, 10**16, R) * normal, E + top, unproven


_guard = repr  # the one slow path, for a value whose digits are unproven


# A value's slot: a sign, "0.000", 17 digits each with ".", "e+ddd", "," or CRLF,
# as six int64 words: the head with the first digit, four quads of digits, the tail.
_WIDTH, _EXP, _SEP = 48, 40, 45  # bytes, and the columns of the "e" and the separator
_HEAD = int.from_bytes(b"\0" + b"0.000" + b"0.", "little")  # the first digit at byte 6
_PAIRS = _R // 10 + (_D << 16) + int.from_bytes(b"0.0.", "little")  # "d.d." by two digits' value
_QUADS = (_PAIRS[:, None] + (_PAIRS << 32)).ravel()  # "d.d.d.d." by four digits' value
_TZ2 = (_D == 0).astype(np.uint8) + (_R == 0)  # trailing zeros of two digits, and of four
_TZ = (_TZ2 + (_R == 0) * _TZ2[:, None]).ravel()
_EXPS = np.frombuffer(b"".join(f"e{e:+04d},\n ".encode() for e in range(-_K, _K + 1)), np.int64)
# 17 x (E + 4) in repr's positional form, 17 x (20 or 21) in its exponent form (2, 3 digits).
_FORM = 17 * np.array([e + 4 if -4 <= e < 16 else 20 + (abs(e) >= 100) for e in range(-_K, _K + 1)])


def _mask_table():
    """Kept slot bytes by ``_FORM[E]`` plus the trailing zeros of 16 digits; see ``_FORM``."""
    table = np.zeros((22, 17, _WIDTH), bool)
    for form, zeros in np.ndindex(22, 17):
        positional, decpt = form < 20, form - 3 if form < 20 else 1  # digits before the point
        ndig, row = 17 - zeros, table[form, zeros]
        row[0] = row[_SEP] = True  # the sign (NUL if positive) and the separator
        row[1:3] = row[6 + decpt:6] = decpt <= 0  # "0." and -decpt zeros
        if decpt > 0 and (positional or ndig > 1):  # the point after digit decpt
            row[5 + 2 * decpt] = True
        # The digits, and a "0" after the point when no digit follows it.
        row[6:6 + 2 * max(ndig, decpt + positional):2] = True
        row[_EXP:_SEP] = not positional  # "e", the sign, 2 or 3 digits
        row[_EXP + 2] = form == 21
    return (table.reshape(-1, _WIDTH) * np.uint8(255)).view(np.int64)


_MASKS = _mask_table()


def _text(a, buf, first_end, ncols):
    """A block's text: each distinct value written once if few (zeros, 0/1 data)
    and the texts gathered, else each value formatted in its slot of ``buf``."""
    bits = np.sort(a.view(np.int64))
    new = bits[1:] != bits[:-1]
    if np.count_nonzero(new) < a.size // 8:
        u = bits[np.r_[True, new]]
        texts = [_guard(x).encode() for x in u.view(np.float64).tolist()]
        width = 2 + max(map(len, texts))
        table = b"".join((t + sep).ljust(width, b"\0") for sep in (b",", b"\r\n") for t in texts)
        k = np.searchsorted(u, a.view(np.int64))
        k[first_end::ncols] += u.size  # row ends take the CRLF texts
        return np.frombuffer(table, np.uint8).reshape(-1, width)[k].tobytes().replace(b"\0", b"")
    R, E, unproven = _shortest(a)
    first, quads = R, np.empty((4, a.size), np.int64)
    for j in (3, 2, 1, 0):  # the 16 digits after the first, four at a time
        rest = first // 10**4
        np.subtract(first, rest * 10**4, out=quads[j])
        first = rest
    tz = np.take(_TZ, quads)
    zeros = tz[0]  # trailing zeros of the 16 digits: the last quad's, and those before a 0000
    for t in tz[1:]:
        zeros = t + (t == 4) * zeros
    words, e = buf.view(np.int64), E + _K
    words[:, 0] = _HEAD + (first << 48) + (a.view(np.int64) >> 63 & ord("-"))
    words[:, 1:5] = np.take(_QUADS, quads).T
    words[:, 5] = np.take(_EXPS, e)
    words &= np.take(_MASKS, _FORM[e] + zeros, axis=0)  # text is ASCII: dropped bytes are NUL
    buf[first_end::ncols, _SEP:_SEP + 2] = 13, 10  # CRLF
    flags, slot = unproven.tobytes(), memoryview(buf).cast("B")  # no index array: see BLOCK
    i = flags.find(1)
    while i >= 0:  # the unproven values' text, ahead of their separators
        slot[i * _WIDTH:i * _WIDTH + _SEP] = _guard(a.item(i)).encode().ljust(_SEP, b"\0")
        i = flags.find(1, i + 1)
    return buf.tobytes().translate(None, b"\0")


def write_csv(fh, m: np.ndarray) -> None:
    """Write the float matrix ``m`` to the binary file ``fh``, CRLF per row."""
    rows, ncols = m.shape
    if not ncols:
        fh.write(b"\r\n" * rows)
    buf = np.empty((min(BLOCK, m.size), _WIDTH), np.uint8)
    for start in range(0, m.size, BLOCK):
        a = m.flat[start:start + BLOCK]  # a C-order copy of one block, for any layout
        first_end = (ncols - 1 - start) % ncols
        fh.write(_text(a, buf[:a.size], first_end, ncols))
