"""Exact linear algebra over GF(2) with bit-packed rows.

Matrices store one Python int per row; bit j of a row is the entry in
column j.  Column vectors are plain ints with bit j = coordinate j.
Everything is immutable; all operations return fresh values.

`transpose` and `mul` each run one of three kernels that give the same
matrix, picked by one rule (`_kernel`) from the matrix's shape and set-bit
count alone: the bit loop (one step per set bit; small or sparse
matrices, and the reference), a word-parallel kernel on the rows packed
into one int (the transpose by log2 s delta swaps of the padded square of
side s, the product by one spread column times one row per row of the
right factor; dense matrices, e.g. 45 x 45 at density 1/2 transposes in
19 us against 157 us), and a bit loop linear in the entries for rows or
columns longer than 16,384 bits.  The crossovers the rule prices are
measured, and written beside it.  `Subspace.reduce_all` picks, by pivot
hits, the bit loop over each vector's pivot bits or the packed sum by pivots.

The values are plain data, not checked on construction: a matrix's row
count and widths, a subspace's basis width and a module's involution are
checked where values enter from outside (`shell.deserialize` and the
public `FiltModule` constructor), and the tests check them on the
engine's own outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional


def _bits(x: int):
    """Iterate over the set bit positions of x, ascending, in time linear in
    its length: a long x is read from its binary string, since clearing its
    lowest bit costs its length each time."""
    if x.bit_length() <= 1024:
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low
        return
    s = bin(x)[:1:-1]  # s[j] is bit j of x
    j = s.find("1")
    while j >= 0:
        yield j
        j = s.find("1", j + 1)


def _spread(x: int, offset: int, width: int) -> int:
    """Bit offset + k * width for each set bit k of x.

    For 0 <= v < 2**width, v * _spread(x, offset, width) places a copy of v
    at each of those positions, without carries."""
    table = _spread_bytes(width)
    out = 0
    while x:
        out |= table[x & 255] << offset
        x >>= 8
        offset += 8 * width
    return out


@lru_cache(maxsize=256)
def _spread_bytes(width: int) -> tuple[int, ...]:
    return tuple(sum(1 << (k * width) for k in _bits(b)) for b in range(256))


# -- the kernel rule -----------------------------------------------------------
#
# ROWS is the bit loop, PACKED the word-parallel kernel and WIDE the bit loop
# for long lines (module docstring).  _kernel prices PACKED in steps of the
# loop (about 0.16 us each) and picks it when self has more set bits than the
# price.  The prices are fits to timings of seeded random matrices from 8 x 8
# to 2048 x 2048 at 2 bits per row to density 1/2 (CPython 3.11, 2-vCPU Xeon):
#   - transpose, side s: 2 s + 16 steps to pack and unpack, plus
#     s^2 log2(s) / 1000 for the delta swaps.  Dense 45 x 45: 157 -> 19 us;
#     8 x 8 at density 1/2: 4.7 against 5.5 us, so the loop stays;
#   - product, slots of w bits: per row of other 2 steps plus
#     rows * w^2 / 150000 for the multiply, plus 3 per row of self.  Dense
#     45 x 45: 150 -> 31 us; 64 x 64 at 2 bits per row: 21 against 61 us.
#   - residues of k vectors modulo d basis rows, slots of w bits: the loop a step
#     per pivot hit, packed 10 + k + d * (3 + k w^2 / 150000).  Dense members:
#     d = 16: 16 -> 9 us, 120 in 128 bits: 1,392 -> 410 us; d = 4 stays on the
#     loop (1.4 against 2.1 us), and so do 2 hits per vector (63 against 298 us).
# A lopsided matrix is priced at its padded square, so 1 x 10^6 is never packed
# into 2^40 bits.  The loop's step costs the length of the row it clears and
# of the column it grows, so past _LONG bits WIDE is picked when the set bits
# times that length outweigh the entries and output rows WIDE creates: a
# dense 1 x 10^6 transpose takes 0.13 s there, and 2 set bits in it cost the
# loop 0.1 ms.
ROWS, PACKED, WIDE = range(3)
_LONG = 16384


def _kernel(m: "BitMatrix", out_cols: Optional[int] = None) -> int:
    """The kernel rule: ROWS, PACKED or WIDE for m.transpose() (out_cols None)
    or for m.mul(other) with other.cols == out_cols.  A matrix with no more
    entries than a lower bound of the packed price and no long line takes the
    loop without its bits being counted."""
    rows, cols = m.rows, m.cols
    if out_cols is None:
        n, out_rows = (rows if rows > cols else cols), cols
        floor = 2 * n + 16
    else:
        n, out_rows = cols, rows
        floor = 2 * cols + 3 * rows
    if rows * cols <= floor and n <= _LONG:
        return ROWS
    if out_cols is None:
        s = _side(n)
        price = 2 * s + 16 + s * s * (s.bit_length() - 1) // 1000
    else:
        w = _slot(max(cols, out_cols))
        price = cols * (2 + rows * w * w // 150000) + 3 * rows
    bits = sum(map(int.bit_count, m.data))
    if bits > price:
        return PACKED
    if n > _LONG and bits * n > _LONG * out_rows + 16 * rows * cols:
        return WIDE
    return ROWS


def _residue_kernel(space: "Subspace", vecs: tuple[int, ...]) -> int:
    """ROWS or PACKED for space.reduce_all(vecs), by pivot hits against the price."""
    d, k = space.dim, len(vecs)
    if k * d <= (price := 10 + k + 3 * d):
        return ROWS
    price += d * (k * _slot(space.ambient) ** 2 // 150000)
    pivots = space._pivots
    return PACKED if sum([(v & pivots).bit_count() for v in vecs]) > price else ROWS


def _side(n: int) -> int:
    """Side of the packed square for n rows or columns: a power of two, whole bytes."""
    return max(8, 1 << (n - 1).bit_length())


def _slot(n: int) -> int:
    """Slot width for rows of n bits: whole bytes."""
    return max(8, (n + 7) & ~7)


def _pack(data: tuple[int, ...], width: int) -> int:
    """The rows as one int, row i in the slot of width bits at i * width."""
    nb = width >> 3
    return int.from_bytes(b"".join([r.to_bytes(nb, "little") for r in data]), "little")


def _slot_sum(data: tuple[int, ...], width: int, terms) -> tuple[int, int]:
    """(P, S): data packed by _pack, and S the sum over (k, row) in terms of the spread
    bit k of each slot times row, without carries for rows narrower than a slot."""
    packed = _pack(data, width)
    ones = int.from_bytes((b"\x01" + bytes((width >> 3) - 1)) * len(data), "little")
    acc = 0
    for k, row in terms:
        acc ^= ((packed >> k) & ones) * row
    return packed, acc


def _unpack(x: int, count: int, width: int) -> tuple[int, ...]:
    """The first count slots of width bits of x, as rows."""
    return _rows_of(x.to_bytes(count * (width >> 3), "little"), width >> 3)


def _rows_of(buf, nb: int) -> tuple[int, ...]:
    """The rows stored in buf in slots of nb bytes, little-endian."""
    if nb == 1:
        return tuple(buf)
    return tuple([int.from_bytes(buf[i:i + nb], "little") for i in range(0, len(buf), nb)])


def _swap_masks(s: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta-swap round of the transpose of side s: the
    mask marks the entries (i, j) with bit k of j set and of i clear."""
    return _swap_masks_cached(s) if s <= 256 else _swap_masks_raw(s)


@lru_cache(maxsize=6)
def _swap_masks_cached(s: int) -> tuple[tuple[int, int], ...]:
    return _swap_masks_raw(s)


def _swap_masks_raw(s: int) -> tuple[tuple[int, int], ...]:
    rounds, k, nb = [], s >> 1, s >> 3
    while k:
        # one row of the mask: the columns with bit k set, byte by byte
        row = bytes([(0xAA, 0xCC, 0xF0)[k.bit_length() - 1]]) * nb if k < 8 \
            else (bytes(k >> 3) + b"\xff" * (k >> 3)) * (s // (2 * k))
        rounds.append((k * (s - 1), int.from_bytes((row * k + bytes(nb * k)) * (s // (2 * k)), "little")))
        k >>= 1
    return tuple(rounds)


@dataclass(frozen=True)
class BitMatrix:
    rows: int
    cols: int
    data: tuple[int, ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "BitMatrix":
        return BitMatrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(entries: Iterable[Iterable[int]], cols: Optional[int] = None) -> "BitMatrix":
        data = []
        width = cols
        for row in entries:
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            data.append(sum((b & 1) << j for j, b in enumerate(row)))
        if width is None:
            width = 0
        return BitMatrix(len(data), width, tuple(data))

    # -- basic access ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.data)

    def flat(self) -> int:
        """Entries as one int, row-major: entry (i, j) is bit i * cols + j."""
        return sum(r << (i * self.cols) for i, r in enumerate(self.data))

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(r == 1 << i for i, r in enumerate(self.data))

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return BitMatrix(self.rows, self.cols, tuple(a ^ b for a, b in zip(self.data, other.data)))

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        """Matrix product self @ other over GF(2), by the kernel that _kernel picks."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        kernel = _kernel(self, other.cols)
        if kernel == ROWS:
            return self._mul_rows(other)
        return self._mul_packed(other) if kernel == PACKED else self._mul_wide(other)

    def _mul_rows(self, other: "BitMatrix") -> "BitMatrix":
        """The bit loop: row i of the product is the sum of the rows of other at
        the set bits of row i of self."""
        rows = other.data
        out = []
        for r in self.data:
            acc = 0
            while r:
                low = r & -r
                acc ^= rows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def _mul_packed(self, other: "BitMatrix") -> "BitMatrix":
        """The word-parallel product: self packed into one int, row i in the
        slot of w bits at i * w.  Column k of self, spread to bit i * w of each
        slot i whose row has bit k, times row k of other places a copy of that
        row in each such slot (w >= other.cols, so without carries), and the
        product is the sum of these over k."""
        w = _slot(max(self.cols, other.cols))
        _, acc = _slot_sum(self.data, w, [(k, row) for k, row in enumerate(other.data) if row])
        return BitMatrix(self.rows, other.cols, _unpack(acc, self.rows, w))

    def _mul_wide(self, other: "BitMatrix") -> "BitMatrix":
        """The bit loop for long rows of self, in time linear in their length:
        the set bits of a row are found in its binary string instead of being
        cleared one at a time from the int, which costs the row's length each."""
        rows = other.data
        out = []
        for r in self.data:
            acc = 0
            for k in _bits(r):
                acc ^= rows[k]
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    @cached_property
    def transposed(self) -> "BitMatrix":
        """The transpose, kept on this frozen matrix (it never goes stale, so it is no
        cache of its own): row i of b.mul(m.transposed) is m applied to row i of b."""
        return self.transpose()

    def transpose(self) -> "BitMatrix":
        """The transpose, by the kernel that _kernel picks."""
        kernel = _kernel(self)
        if kernel == ROWS:
            return self._transpose_rows()
        return self._transpose_packed() if kernel == PACKED else self._transpose_wide()

    def _transpose_rows(self) -> "BitMatrix":
        """The bit loop: bit j of row i sets bit i of row j."""
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return BitMatrix(self.cols, self.rows, tuple(out))

    def _transpose_packed(self) -> "BitMatrix":
        """The word-parallel transpose: the rows packed into one int as the
        square of side s, entry (i, j) at bit i * s + j, transposed in log2 s
        rounds.  The round of k swaps, in every 2k x 2k block, the top-right
        and bottom-left k x k quarters: entry (i, j) with bit k of j set and of
        i clear trades places with (i + k, j - k), k * (s - 1) bits up."""
        s = _side(max(self.rows, self.cols))
        x = _pack(self.data, s)
        for shift, mask in _swap_masks(s):
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        return BitMatrix(self.cols, self.rows, _unpack(x, self.cols, s))

    def _transpose_wide(self) -> "BitMatrix":
        """The bit loop for long rows or many rows, in time linear in the
        entries: the set bits of a row are found in its binary string, and the
        columns are gathered in one bytearray, column j in the slot of nb bytes
        at j * nb, instead of being grown as ints one bit at a time."""
        nb = (self.rows >> 3) + 1
        out = bytearray(self.cols * nb)
        for i, r in enumerate(self.data):
            at, bit = i >> 3, 1 << (i & 7)
            for j in _bits(r):
                out[j * nb + at] |= bit
        return BitMatrix(self.cols, self.rows, _rows_of(out, nb))

    # -- block assembly ----------------------------------------------------

    @staticmethod
    def from_blocks(rows: int, cols: int, blocks) -> "BitMatrix":
        """The rows x cols sum of the blocks (row, col, block), each placed
        with its top-left entry at (row, col)."""
        data = [0] * rows
        for r0, c0, block in blocks:
            if r0 + block.rows > rows or c0 + block.cols > cols:
                raise ValueError("block does not fit inside the matrix")
            for i, r in enumerate(block.data, r0):
                data[i] ^= r << c0
        return BitMatrix(rows, cols, tuple(data))

    @staticmethod
    def block_diag(blocks: Iterable["BitMatrix"]) -> "BitMatrix":
        data: list[int] = []
        rows = cols = 0
        for b in blocks:
            data.extend(r << cols for r in b.data)
            rows += b.rows
            cols += b.cols
        return BitMatrix(rows, cols, tuple(data))

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        """Kronecker product; index (i1, i2) maps to i1 * other.rows + i2."""
        data = []
        for r1 in self.data:
            spread = _spread(r1, 0, other.cols)
            data.extend(r2 * spread for r2 in other.data)
        return BitMatrix(self.rows * other.rows, self.cols * other.cols, tuple(data))

    def split(self, r: range, c: range) -> tuple["BitMatrix", ...]:
        """The blocks (a, b, c, e) of self = [[a, b], [c, e]] up to the order of
        rows and columns: a on the rows r and columns c, b on the rows r and the
        other columns, c on the other rows and the columns c, e on the rest.  r
        and c are contiguous and may be empty; the rest keeps its order."""
        lo, width = c.start, len(c)
        below, inner = (1 << lo) - 1, (1 << width) - 1

        def cut(rows):
            inside = BitMatrix(len(rows), width, tuple([(x >> lo) & inner for x in rows]))
            outside = tuple([(x & below) | ((x >> (lo + width)) << lo) for x in rows])
            return inside, BitMatrix(len(rows), self.cols - width, outside)

        return (*cut(self.data[r.start:r.stop]), *cut(self.data[:r.start] + self.data[r.stop:]))

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["BitMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot column indices, pivoting on
        lowest set bits.  Each row is cleared at its pivot bits in one pass (a
        reduced row has no pivot bit but its own); a nonzero remainder is a new
        pivot row, cleared from the earlier ones.  The form is unique."""
        reduced: dict[int, int] = {}  # pivot bit (as 1 << col) -> reduced row
        mask = 0
        for r in self.data:
            hit = r & mask
            while hit:
                low = hit & -hit
                r ^= reduced[low]
                hit ^= low
            if r:
                low = r & -r
                for p, row in reduced.items():
                    if row & low:
                        reduced[p] = row ^ r
                reduced[low] = r
                mask |= low
        order = sorted(reduced)
        data = [reduced[p] for p in order] + [0] * (self.rows - len(order))
        # from a list: tuple() of a generator sizes its block by guesses and raised peak RSS
        pivots = tuple([p.bit_length() - 1 for p in order])
        return BitMatrix(self.rows, self.cols, tuple(data)), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "BitMatrix":
        """Basis of the null space {x : self @ x = 0}, one vector per row."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = 1 << f
            for i, p in enumerate(pivots):
                if (red.data[i] >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return BitMatrix(len(basis), self.cols, tuple(basis))

    def solve(self, b: int) -> Optional[int]:
        """Some x with self @ x = b, or None if the system is inconsistent."""
        return self.solve_many((b,))[0]

    def solve_many(self, bs) -> list[Optional[int]]:
        """Solve self @ x = b for several right-hand sides with one elimination."""
        bs = tuple(bs)
        k = len(bs)
        if k == 0:
            return []
        aug_rows = []
        for i, r in enumerate(self.data):
            extra = 0
            for j, b in enumerate(bs):
                extra |= ((b >> i) & 1) << j
            aug_rows.append(r | (extra << self.cols))
        red, pivots = BitMatrix(self.rows, self.cols + k, tuple(aug_rows)).rref()
        n_piv = 0
        for p in pivots:
            if p < self.cols:
                n_piv += 1
            else:
                break
        # rows past the coefficient pivots witness inconsistent right-hand sides
        bad = 0
        for i in range(n_piv, self.rows):
            bad |= red.data[i] >> self.cols
        out: list[Optional[int]] = []
        for j in range(k):
            if (bad >> j) & 1:
                out.append(None)
                continue
            x = 0
            for i in range(n_piv):
                if (red.data[i] >> (self.cols + j)) & 1:
                    x |= 1 << pivots[i]
            out.append(x)
        return out

    def inverse(self) -> Optional["BitMatrix"]:
        if self.rows != self.cols:
            return None
        n = self.rows
        # [self | 1]: row i gets the identity's bit at column n + i
        aug = BitMatrix(n, 2 * n, tuple(r | (1 << (n + i)) for i, r in enumerate(self.data)))
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            return None
        mask = (1 << n) - 1
        return BitMatrix(n, n, tuple((r >> n) & mask for r in red.data[:n]))


class LinearSystem:
    """Unknown matrices over GF(2) and linear equations on them.

    block() allocates an unknown matrix X_b; its entries are packed
    row-major, blocks in allocation order, into one flat unknown vector (an
    int).  equation() adds the entrywise equations sum L . X_b . R = C.
    kernel() and solve() come from reduced echelon form, so they depend only
    on the layout and the span of the equations, not on their order.
    """

    def __init__(self):
        self.n = 0
        self.rows: list[int] = []
        self.rhs = 0  # bit i is the right-hand side of rows[i]
        self._blocks: list[tuple[int, int, int]] = []  # (offset, rows, cols)

    def block(self, rows: int, cols: int) -> int:
        """Allocate a rows x cols unknown matrix and return its id."""
        self._blocks.append((self.n, rows, cols))
        self.n += rows * cols
        return len(self._blocks) - 1

    def equation(self, terms, rhs: Optional[BitMatrix] = None) -> None:
        """Add sum over terms (L, b, R) of L . X_b . R = rhs (zero if None).

        L is a BitMatrix, or None for the identity.  R is given by its
        columns (ints over the columns of X_b), or None for the identity, so
        each equation row is one shifted copy of a column of R per set bit
        of a row of L."""
        acc, shape = [], None
        for left, b, right in terms:
            off, nr, nc = self._blocks[b]
            if right is None:
                right = [1 << j for j in range(nc)]
            elif max(right, default=0) >> nc:
                raise ValueError("right factor does not match the block")
            if left is None:
                spreads = [1 << (off + i * nc) for i in range(nr)]
            elif left.cols != nr:
                raise ValueError("left factor does not match the block")
            else:
                spreads = [_spread(r, off, nc) for r in left.data]
            if shape not in (None, (len(spreads), len(right))):
                raise ValueError("equation terms differ in shape")
            rows = [s * c for s in spreads for c in right]
            acc = rows if shape is None else [a ^ r for a, r in zip(acc, rows)]
            shape = (len(spreads), len(right))
        if rhs is None:
            self.rows.extend(filter(None, acc))
            return
        if shape is None:  # no terms: the equation reads 0 = rhs
            acc = [0] * (rhs.rows * rhs.cols)
        elif (rhs.rows, rhs.cols) != shape:
            raise ValueError("right-hand side does not match the equation")
        self.rhs |= rhs.flat() << len(self.rows)
        self.rows.extend(acc)

    def constrain(self, b: int, rows) -> None:
        """Add homogeneous rows already packed over the entries of X_b."""
        off = self._blocks[b][0]
        self.rows.extend([r << off for r in rows] if off else rows)

    def _coefficients(self) -> BitMatrix:
        return BitMatrix(len(self.rows), self.n, tuple(self.rows))

    def kernel(self) -> tuple[int, ...]:
        """Basis of the homogeneous solutions, as flat unknown vectors."""
        return self._coefficients().kernel().data

    def solve(self) -> Optional[int]:
        """A flat solution (free unknowns zero), or None if inconsistent."""
        return self._coefficients().solve(self.rhs)

    def matrix(self, b: int, flat: int) -> BitMatrix:
        """The value of X_b in a flat unknown vector."""
        off, nr, nc = self._blocks[b]
        mask = (1 << nc) - 1
        return BitMatrix(nr, nc, tuple((flat >> (off + i * nc)) & mask for i in range(nr)))


def _is_reduced(vecs: tuple[int, ...]) -> bool:
    """True iff vecs are the reduced echelon basis of their span in rref's
    order: rows nonzero, lowest bits strictly increasing, and no row holding
    another row's lowest bit."""
    lows = [v & -v for v in vecs]
    pivots = sum(lows)
    return all(a < b for a, b in zip([0, *lows], lows)) and all(v & pivots == b for v, b in zip(vecs, lows))


def insert_independent(tops: dict[int, int], v: int) -> bool:
    """Reduce v by independent vectors keyed by highest set bit and, if a
    remainder is left, key it by its highest bit: True iff v was independent."""
    while v:
        top = v.bit_length() - 1
        if top not in tops:
            tops[top] = v
            return True
        v ^= tops[top]
    return False


@dataclass(frozen=True)
class Subspace:
    """Subspace of GF(2)^ambient with basis rows in reduced echelon form.

    The stored basis is canonical: two subspaces are equal iff their
    dataclass fields are bit-identical.
    """

    ambient: int
    basis: BitMatrix

    @staticmethod
    def span(ambient: int, vectors: Iterable[int]) -> "Subspace":
        """The span, its basis in reduced echelon form: vectors that are that basis
        already (_is_reduced, exact) are what rref returns, so they are kept as given."""
        vecs = tuple(vectors)
        if _is_reduced(vecs):
            return Subspace(ambient, BitMatrix(len(vecs), ambient, vecs))
        red, pivots = BitMatrix(len(vecs), ambient, vecs).rref()
        return Subspace(ambient, BitMatrix(len(pivots), ambient, red.data[: len(pivots)]))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, BitMatrix(0, ambient, ()))

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, BitMatrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    @cached_property
    def _pivots(self) -> int:
        """The pivot bits of the basis as one int, kept on the frozen value as
        BitMatrix.transposed is.  Pivots are distinct, so their sum is their union."""
        return sum(b & -b for b in self.basis.data)

    def reduce_all(self, vecs: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical residue of each vector, by the kernel _residue_kernel picks."""
        return (self._reduce_rows if _residue_kernel(self, vecs) == ROWS else self._reduce_packed)(vecs)

    def _reduce_rows(self, vecs: tuple[int, ...]) -> tuple[int, ...]:
        """The bit loop: only the pivot bits a vector has are cleared, each by the row
        of that pivot, the count of the pivots below it; clearing one sets no other."""
        pivots, rows, out = self._pivots, self.basis.data, []
        for v in vecs:
            hit = v & pivots
            while hit:
                low = hit & -hit
                v ^= rows[(pivots & (low - 1)).bit_count()]
                hit ^= low
            out.append(v)
        return tuple(out)

    def _reduce_packed(self, vecs: tuple[int, ...]) -> tuple[int, ...]:
        """The word-parallel residues: u plus the row of each pivot bit of u, so with the
        vectors in slots of w >= ambient bits, the product's sum _slot_sum indexed by pivots."""
        w = _slot(self.ambient)
        packed, acc = _slot_sum(vecs, w, [((row & -row).bit_length() - 1, row) for row in self.basis.data])
        return _unpack(packed ^ acc, len(vecs), w)

    def contains_all(self, vecs: tuple[int, ...]) -> bool:
        return not any(self.reduce_all(vecs))

    def contains_space(self, other: "Subspace") -> bool:
        return self.contains_all(other.basis.data)

    def extension(self, larger: "Subspace") -> list[int]:
        """The basis vectors of larger, in stored order, that lie outside the
        span of this subspace and of the vectors kept before them; for
        self <= larger they extend a basis of self to one of larger."""
        tops: dict[int, int] = {}
        for v in self.basis.data:
            insert_independent(tops, v)
        return [v for v in larger.basis.data if insert_independent(tops, v)]

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.span(self.ambient, self.basis.data + other.basis.data)

    def perp(self) -> "Subspace":
        """Orthogonal complement for the standard dot product."""
        return _perp_cached(self)


@lru_cache(maxsize=65536)
def _perp_cached(s: "Subspace") -> "Subspace":
    return Subspace.span(s.ambient, s.basis.kernel().data)


def image(m: BitMatrix) -> Subspace:
    """Column space of m as a subspace of GF(2)^rows."""
    return Subspace.span(m.rows, m.transpose().data)


def kernel_space(m: BitMatrix) -> Subspace:
    return Subspace.span(m.cols, m.kernel().data)


@dataclass(frozen=True)
class C2Module:
    """Finite-dimensional module over the group algebra of the order-2 group.

    sigma is the matrix of the involution generator.
    """

    dim: int
    sigma: BitMatrix

    @staticmethod
    def trivial(n: int = 1) -> "C2Module":
        return C2Module(n, BitMatrix.identity(n))

    @staticmethod
    def free(b: int = 1) -> "C2Module":
        swap = BitMatrix.from_rows([[0, 1], [1, 0]])
        return C2Module(2 * b, BitMatrix.block_diag([swap] * b))

    @staticmethod
    def standard(a: int, b: int) -> "C2Module":
        """Direct sum of a trivial and b free summands, in that block order."""
        blocks = [BitMatrix.identity(a)] if a else []
        swap = BitMatrix.from_rows([[0, 1], [1, 0]])
        blocks.extend([swap] * b)
        return C2Module(a + 2 * b, BitMatrix.block_diag(blocks))

    def norm(self) -> BitMatrix:
        """The matrix 1 + sigma."""
        return self.sigma.add(BitMatrix.identity(self.dim))

    def tensor(self, other: "C2Module") -> "C2Module":
        return C2Module(self.dim * other.dim, self.sigma.kron(other.sigma))

    def dual(self) -> "C2Module":
        return C2Module(self.dim, self.sigma.transpose())

    def module_split(self) -> tuple[int, int]:
        """Multiplicities (a, b) of the trivial and the free indecomposable."""
        b = self.norm().rank()
        return self.dim - 2 * b, b

    def standard_split(self) -> tuple[int, int, BitMatrix, BitMatrix]:
        """Explicit splitting: (a, b, U, U^-1) with U an isomorphism standard(a, b) -> self.

        Columns of U are the images of the standard basis vectors.
        """
        n = self.norm()
        img = image(n)
        b = img.dim
        a = self.dim - 2 * b
        lifts = n.solve_many(img.basis.data)
        images = BitMatrix(len(lifts), self.dim, tuple(lifts)).mul(self.sigma.transposed).data
        cols = img.extension(kernel_space(n)) + [c for pair in zip(lifts, images) for c in pair]
        u_mat = BitMatrix(len(cols), self.dim, tuple(cols)).transpose()
        u_inv = u_mat.inverse()
        if u_inv is None:
            raise AssertionError("standard_split produced a singular basis")
        return a, b, u_mat, u_inv


def equivariance_rows(target: C2Module, source: C2Module) -> tuple[int, ...]:
    """Linear constraints on X (target.dim x source.dim, row-major unknowns)
    expressing sigma_target @ X = X @ sigma_source."""
    if source.dim <= 16 and target.dim <= 16:
        return _equivariance_rows_cached(target, source)
    return _equivariance_rows_raw(target, source)


@lru_cache(maxsize=4096)
def _equivariance_rows_cached(target, source):
    return _equivariance_rows_raw(target, source)


def _equivariance_rows_raw(target: C2Module, source: C2Module) -> tuple[int, ...]:
    system = LinearSystem()
    x = system.block(target.dim, source.dim)
    system.equation([(target.sigma, x, None), (None, x, source.sigma.transpose().data)])
    return tuple(system.rows)


def quotient_module(module: C2Module, sub: Subspace, below: Subspace) -> tuple[C2Module, BitMatrix]:
    """Subquotient sub/below with the induced involution.

    Returns (Q, reps) where rows of reps are coset representatives in the
    ambient coordinates of `module`.  Requires below <= sub, both stable.
    """
    if not sub.contains_space(below):
        raise ValueError("not a subquotient: below is not contained in sub")
    ext = below.extension(sub)
    reps = BitMatrix(len(ext), module.dim, tuple(ext))
    return C2Module(reps.rows, induced_map(reps, reps, below, module.sigma)), reps


def induced_map(reps_src: BitMatrix, reps_tgt: BitMatrix, below_tgt: Subspace, m: BitMatrix) -> BitMatrix:
    """Matrix induced on subquotients by m, in the given representative bases."""
    k_tgt = reps_tgt.rows
    solver = BitMatrix(k_tgt + below_tgt.dim, m.rows, reps_tgt.data + below_tgt.basis.data).transpose()
    cols = []
    for coeff in solver.solve_many(reps_src.mul(m.transposed).data):
        if coeff is None:
            raise ValueError("map does not descend to subquotient")
        cols.append(coeff & ((1 << k_tgt) - 1))
    return BitMatrix(len(cols), k_tgt, tuple(cols)).transpose()
