"""Dense CSV text with ``repr``'s shortest round-trip digits, a block at a time.

``repr`` finds them by bignum arithmetic (Gay's ``dtoa``), ~1 us a value.  Here
``N = |x| 10**k`` in ``[1e16, 1e17)``, ``k = 16 - floor(log10|x|)``, is Dekker's
product with a double-double ``5**k``: exact where ``0 <= k <= 22``, else to ~1e-14.
The doubles that read back as ``x`` lie within ``H = ulp(x)/2 * 10**k`` of ``N``,
``0.55 < H < 11.2``, so the digits are the multiple of 100, else 10, else 1
nearest ``N`` within ``H``.  ``_guard`` (``repr``) takes inf, nan, subnormals, ties,
distances within ``1e-9 H`` of ``H``, a power of two whose digits lie below ``N``
(a lopsided interval), and each distinct value of a block that holds few.
"""

import numpy as np

#: Values per block, cut in C order across row ends.  Larger blocks, or numpy
#: arrays per unproven value, pinned ~30 MB of heap above the caller's arrays.
BLOCK = 2048

_K = 330  # tables over k and E in [-_K, _K]; a normal double needs |k|, |E| <= 325
_P5 = [(5**k, 1) if k >= 0 else (1, 5**-k) for k in range(-_K, _K + 1)]  # 5**k as a / b
_P5HI = np.array([a / b for a, b in _P5])  # and as a double-double hi + lo
_P5LO = np.array([(a * d - n * b) / (b * d) for (a, b), (n, d)
                  in zip(_P5, map(float.as_integer_ratio, _P5HI.tolist()))])


def _scaled(ax, E):
    """``(I, f, H)``: ``I + f = ax 10**k``, ``I`` whole and ``0 <= f < 1``; ``k = 16 - E``."""
    k = 16 - E
    hi, lo = _P5HI[k + _K], _P5LO[k + _K]
    y = np.ldexp(ax, k)
    p = y * hi
    t, u = 134217729.0 * y, 134217729.0 * hi  # Veltkamp's split at 2**27 + 1
    y_hi, h_hi = t - (t - y), u - (u - hi)
    y_lo, h_lo = y - y_hi, hi - h_hi
    e = ((y_hi * h_hi - p) + y_hi * h_lo + y_lo * h_hi) + y_lo * h_lo + y * lo
    floor_e = np.floor(e)
    H = np.ldexp(hi, (ax.view(np.int64) >> 52) - 1076 + k)  # ulp(ax) = 2**(bexp - 1075)
    return p.astype(np.int64) + floor_e.astype(np.int64), e - floor_e, H


def _shortest(a):
    """``(R, E, unproven)``: ``|a| = R 10**(E - 16)`` in ``R``'s digits, where proven."""
    bits = a.view(np.int64)
    bexp, pow2 = (bits >> 52) & 2047, (bits & (2**52 - 1)) == 0
    fast = (bexp != 0) & (bexp != 2047)  # normal: not zero, subnormal, inf or nan
    ax = np.where(fast, np.abs(a), 1.5)
    E = np.floor(np.log10(ax)).astype(np.intp)
    ip, f, H = _scaled(ax, E)
    shift = (ip >= 10**17).astype(np.intp) - (ip < 10**16)  # log10 erred by one
    if shift.any():
        E += shift
        ip, f, H = _scaled(ax, E)
    r100, r10 = ip - ip // 100 * 100, ip - ip // 10 * 10
    # d: N less the multiple of 100 (10) below it; z: d less the midpoint to the
    # next.  The nearer of the two lies within H iff z > 50 - H (5 - H), and is kept.
    d2, d1 = r100 + f, r10 + f
    z2, z1 = np.abs(d2 - 50.0), np.abs(d1 - 5.0)
    tol = 1e-9 * H
    R = ip + np.where(z2 > 50.0 - H, (d2 > 50.0) * 100 - r100,
                      np.where(z1 > 5.0 - H, (d1 > 5.0) * 10 - r10, f > 0.5))
    # Below a power of two the interval is H/2: a candidate below N needs repr.
    unproven = (~(fast | (a == 0)) | (np.abs(f - 0.5) <= tol) | (z1 <= tol)
                | (np.abs(z2 - (50.0 - H)) <= tol) | (np.abs(z1 - (5.0 - H)) <= tol)
                | pow2 & ((R < ip) | (R == ip) & (f > 0)))
    top = R == 10**17  # 9...9 rounded up
    return np.where(top, 10**16, R) * (a != 0), E + top, unproven


_guard = repr  # the one slow path, for a value whose digits are unproven


# A value's slot: a sign, "0.000", 17 digits each with ".", "e+ddd", "," or CRLF.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,\n ", np.uint8)
_WIDTH = _TEMPLATE.size  # 48: filled by uint32 "t.o." digit pairs and a uint64 tail
_DIGIT0, _EXP, _SEP = 6, 40, 45  # columns of the first digit, the "e" and the separator
_PAIRS = np.frombuffer("".join(f"{i // 10}.{i % 10}." for i in range(100)).encode(), np.uint32)
_EXPS = np.frombuffer(b"".join(f"e{e:+04d},\n ".encode() for e in range(-_K, _K + 1)), np.uint64)
# E + 4 in repr's positional form; 20 and 21 in its exponent form (2 and 3 digits).
_FORM = np.array([e + 4 if -4 <= e < 16 else 20 + (abs(e) >= 100) for e in range(-_K, _K + 1)])


def _mask_table():
    """Kept slot bytes by ``18 * _FORM[E] + digit count``; see ``_FORM``."""
    table = np.zeros((22, 18, _WIDTH), bool)
    for form, ndig in np.ndindex(22, 18):
        positional, decpt = form < 20, form - 3 if form < 20 else 1  # digits before the point
        row = table[form, ndig]
        row[1:3] = row[_DIGIT0 + decpt:_DIGIT0] = decpt <= 0  # "0." and -decpt zeros
        if decpt > 0 and (positional or ndig > 1):  # the point after digit decpt
            row[_DIGIT0 + 2 * decpt - 1] = True
        # The digits, and a "0" after the point when no digit follows it.
        row[_DIGIT0:_DIGIT0 + 2 * max(ndig, decpt + positional):2] = True
        row[_EXP:_SEP] = not positional  # "e", the sign, 2 or 3 digits
        row[_EXP + 2] = form == 21
        row[_SEP] = True
    return table.reshape(-1, _WIDTH)


_MASKS = _mask_table()


def _text(a, buf, mask, first_end, ncols):
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
    hi, lo = (h.astype(np.int32) for h in np.divmod(R, 10**8))  # 9 digits, then 8
    q = np.stack([hi, lo], 1)[:, :, None] // 10 ** np.arange(6, -1, -2, dtype=np.int32)
    pairs = (q - q // 100 * 100).reshape(-1, 8)  # the digits after the first
    buf[:] = _TEMPLATE
    buf[:, _DIGIT0] = hi // 10**8 + ord("0")
    buf.view(np.uint32)[:, 2:10] = np.take(_PAIRS, pairs)
    buf.view(np.uint64)[:, _EXP // 8] = np.take(_EXPS, E + _K)
    # The digits up to the last nonzero one; zero (R = 0) has none.
    ndig = (17 - np.argmax(buf[:, _DIGIT0 + 32:_DIGIT0 - 1:-2] != ord("0"), axis=1)) * (R > 0)
    np.take(_MASKS, 18 * _FORM[E + _K] + ndig, axis=0, out=mask)
    mask[:, 0] = np.signbit(a)
    buf[first_end::ncols, _SEP] = ord("\r")
    mask[first_end::ncols, _SEP + 1] = True
    np.multiply(buf, mask, out=buf)  # text is ASCII: dropped bytes become NUL
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
    mask = np.empty(buf.shape, bool)
    for start in range(0, m.size, BLOCK):
        a = m.flat[start:start + BLOCK]  # a C-order copy of one block, for any layout
        first_end = (ncols - 1 - start) % ncols
        fh.write(_text(a, buf[:a.size], mask[:a.size], first_end, ncols))
