"""Exact expectations of perm_m and perm_m * perm_m2 over the ensemble.

Both expectations reduce to finite combinatorial sums.  Expanding perm_m
turns it into a sum over "placements": sets of m cells, no two sharing a
row or column, each cell carrying a color in 1..r that names which of the
r permutations must pass through it.  The expectation of a product of two
subpermanent sums is then a sum over pairs (first placement, second
placement), and the probability weight of a pair depends only on how the
second placement's cells collide with the first.  Each second-placement
cell falls in exactly one class:

  fresh      row and column both unused by the first placement
  dup        duplicates a first-placement cell (same spot, same color)
  row hit    stands on a used row, but on a fresh column
  col hit    stands on a used column, but on a fresh row
  cross hit  used row and used column, without being a dup

Same-color collisions other than exact duplication are impossible, so a
row/col/cross hit of color i always stands on rows or columns held by some
other color k.  A ColorProfile records all the per-color (and per color
pair) counts of this classification; the expectation is the sum over all
feasible profiles of a product of seven exact counting factors, divided by
(n!)^r.  The factors count, in order: first-placement choices, fresh
cells, dup choices, row hits, col hits, cross hits, and the number of ways
to complete each permutation around its forced cells, (n - load)!.  No
color is forced on more than K = min(n, m + m2) cells, so the sums take
each completion over (n - K)! and divide by (n)_K^r: no n! is built, and a
large n costs no more than a small one.  Fresh cells are a
placement on the (n - m) x (n - m) free board, so ``_base_integer`` gives
both of the first two factors.

``profile_iterator`` enumerates the profiles; ``expectation_product`` and
``argmax_profile`` reach the same terms without visiting them one by one.
Per base split and fresh count a, the dup splits are the compositions of
m2 - a into the base parts plus a slack part, the cells left for hits.
Row and col hits are one family (the same matrices, host caps and factor,
none of it depending on the fresh split), so each dup split gets one hit
list, filled as read: row hits read it whole, col hits within the slack.
A prefix (base, fresh, dup, row_hits, col_hits) fixes the first five
factors, W, and what is left per color: ``spare`` free cells and
``lcaps``/``rcaps`` free host rows/columns for cross hits.  With the cross
hits per color fixed at dvec, the last two factors are

  prod_i (spare_i - d_i)! d_i! * H(lmat, lcaps) * H(rmat, rcaps),

  H(mat, caps) = prod_i C(caps_i, h_i) h_i! / prod_{i != k} mat[i][k]!,

where h_i are mat's column sums and (lmat, rmat) range independently over
off-diagonal matrices with row sums dvec and column sums h_i <= caps_i.  So
the prefix contributes W sum_dvec prod_i (spare_i - d_i)! d_i! L(dvec, lcaps)
L(dvec, rcaps), with L(dvec, caps) = sum_mat H(mat, caps), and its largest
term is W prod_i (spare_i - d_i)! d_i! times the largest H on each side.  L,
the matrix count and the largest H come from a table built once per
(dvec, caps) in each call, numbers only: ``argmax_profile`` finds the two
matrices of its winning term after the walk.  The enumerators hand each
matrix over with the host lines it leaves, caps_i - h_i, so no column is
summed again, and a table with no matrix fails Hall's condition in O(r).
Relabelling the colors maps profiles onto profiles of equal weight, so
``_walk`` visits one base split per orbit, its non-decreasing arrangement
(the orbit's first in lex order), weighted by its r! / prod (multiplicity)!
rearrangements; the term count stays the raw profile count.  The orbits
are ``kernels.rising_splits(m, r)``, the oracle's partition enumerator.
The first largest term, which ``argmax_profile`` reports, lies in such a
split too.

``product_table`` reaches every E(perm_m perm_m2) of one (n, r) at once
without profiles, so it has no term count: at r = 2 from a linear
recurrence in n, at r >= 3 from the paths and cycles that two placements
form (``_path_cycle_table``), within a budget on the coefficients it keeps.
``expectation_product`` and ``argmax_profile`` keep the profile walk, whose
term count is the raw profile count.
"""

from collections import Counter, defaultdict, namedtuple
from copy import copy
from fractions import Fraction
from itertools import tee
from math import comb, factorial, perm, prod
from operator import add, mul, sub

from .errors import CapacityError, DomainError
from .kernels import rising_splits
from .permanents import ExactMoment, check_moment

TERM_BUDGET_DEFAULT = 10**9
TABLE_STATE_BUDGET = 2 * 10**5


# ---------------------------------------------------------------------------
# constrained enumeration helpers


def _capped_compositions(total, caps):
    """Compositions of `total` into len(caps) >= 1 parts, 0 <= part i <= caps[i], in lex order.

    Each step raises the last part j that can grow while later parts hold
    something, and packs those, less one, as far right as the caps allow.
    """
    parts = [0] * len(caps)
    j, left = -1, total
    while True:
        k = len(caps)
        while left and k > j + 1:
            k -= 1
            parts[k] = caps[k] if caps[k] < left else left
            left -= parts[k]
        if left:  # total > sum(caps): only the first pack can fail
            return
        yield tuple(parts)
        for j in range(len(caps) - 2, -1, -1):
            left += parts[j + 1]
            parts[j + 1] = 0
            if left and parts[j] < caps[j]:
                parts[j] += 1
                left -= 1
                break
        else:
            return


def _row_sums(mat):
    return [sum(row) for row in mat]


def _column_sums(mat):
    return [sum(col) for col in zip(*mat)]


def _offdiag_matrices(r, budget, col_caps):
    """Off-diagonal r x r count matrices with total <= budget, col sums capped.

    Lex order over the cells, row by row, from the zero matrix (budget and
    caps are >= 0): each step raises the last cell that can still grow and
    zeroes every cell after it.  Cells in a column capped at 0 never grow.
    Yields (mat, lefts): lefts[k] is col_caps[k] less column k's sum.
    """
    cells = [(i, k) for i in range(r) for k in range(r) if k != i and col_caps[k]]
    mat = [[0] * r for _ in range(r)]
    room = list(col_caps)
    while True:
        yield tuple(tuple(row) for row in mat), tuple(room)
        for i, k in reversed(cells):
            if budget and room[k]:
                mat[i][k] += 1
                budget -= 1
                room[k] -= 1
                break
            budget += mat[i][k]
            room[k] += mat[i][k]
            mat[i][k] = 0
        else:
            return


def _offdiag_rowsum_matrices(r, row_sums, col_caps):
    """``_offdiag_matrices``' (mat, lefts) in lex order, exact row sums in place of a budget."""
    held = sum(col_caps)  # Hall: one row reaches all columns but its own, two reach all
    if sum(row_sums) > held or any(d + c > held for d, c in zip(row_sums, col_caps)):
        return
    mat, room, zero = [], list(col_caps), (0,) * r

    def rows(i):  # row i's choices in the room left by the rows above; a zero row takes none
        return (_capped_compositions(row_sums[i], [*room[:i], 0, *room[i + 1:]])
                if row_sums[i] else iter((zero,)))

    stack = [rows(0)]  # one iterator per placed row, and one for the next
    while stack:
        if len(mat) == len(stack):  # the top iterator's last row is done
            if (row := mat.pop()) is not zero:
                room = list(map(add, room, row))
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
        elif len(mat) + 1 == r:
            yield (*mat, row), tuple(map(sub, room, row))
        else:
            mat.append(row)
            if row is not zero:
                room = list(map(sub, room, row))
            stack.append(rows(len(mat)))


# ---------------------------------------------------------------------------
# profiles


class ColorProfile(namedtuple(
        "ColorProfile", "base fresh dup row_hits col_hits cross_rows cross_cols")):
    """Per-color collision census of one second placement against a first.

    ``base[i]`` is the number of first-placement cells of color i; the other
    fields count second-placement cells by class.  The pair-indexed fields
    are zero on the diagonal: ``row_hits[i][k]`` counts color-i row hits
    standing on a row held by color k != i, and similarly for ``col_hits``.
    A cross hit occupies one used row and one used column, so it appears
    once in ``cross_rows[i][k]`` (row host k) and once in
    ``cross_cols[i][k']`` (column host k').
    """

    __slots__ = ()


def _loads(p):
    """Forced cells per color: how much of each permutation is pinned."""
    hits = map(_row_sums, (p.row_hits, p.col_hits, p.cross_rows))
    return [sum(cells) for cells in zip(p.base, p.fresh, *hits)]


def _hit_list(r, free, budget, hosts):
    """The hit matrices of one dup split, in ``_offdiag_matrices`` order.

    Entries are (mat, total T, row sums, host lines left, factor), the
    factor C(free, T) T! (fresh lines for the hits) times ``_host_integer``
    over ``hosts``.  A never-advanced tee: each pass reads a copy, so a
    matrix is drawn and weighed once, and only when some pass reaches it.
    """

    def entries():
        for mat, lefts in _offdiag_matrices(r, budget, hosts):
            total = sum(hosts) - sum(lefts)
            yield (mat, total, _row_sums(mat), lefts,
                   perm(free, total) * _host_integer(hosts, lefts, mat))

    return tee(entries(), 1)[0]


def _prefixes(n, r, m, m2, bases):
    """Every profile prefix (base, fresh, dup, rowh, colh) for the given base splits.

    Yields the prefix, its weight w (the base, fresh, dup, row-hit and
    col-hit factors), the number d of cross hits still to place, the cells
    each color can still take (``spare``), and the host lines left for
    cross rows and cross columns (``lcaps``, ``rcaps``).  The dup splits and
    their hit lists are built once per (base, a) and read by every fresh split.
    """
    for base in bases:
        w_base = _base_integer(base, n, m)
        for a in range(min(n - m, m2) + 1):
            free = n - m - a
            dups = []
            # the slack part, m2 - a - sum(dup), is what the hits may still take
            for *dup, left in _capped_compositions(m2 - a, (*base, m2 - a)):
                hosts = [bi - ei for bi, ei in zip(base, dup)]
                # row plus cross hits stand on distinct host rows, col plus
                # cross hits on distinct host columns: past 2 sum(hosts), no
                # split of the slack into hits fits
                if left <= 2 * sum(hosts):
                    dups.append((tuple(dup), left, _dup_integer(base, dup),
                                 _hit_list(r, free, min(free, left), hosts)))
            if not dups:
                continue  # no profile has this fresh count
            for fresh in _capped_compositions(a, (a,) * r):
                w_fresh = w_base * _base_integer(fresh, n - m, a)
                for dup, left, w_dup, hits in dups:
                    for rowh, b, rh_rows, lcaps, w_row in copy(hits):
                        w_row *= w_fresh * w_dup
                        for colh, c, ch_rows, rcaps, w_col in copy(hits):
                            if b + c <= left:
                                spare = tuple(n - base[i] - fresh[i] - rh_rows[i] - ch_rows[i]
                                              for i in range(r))
                                yield (base, fresh, dup, rowh, colh,
                                       w_row * w_col, left - b - c, spare, lcaps, rcaps)


def profile_iterator(n, r, m, m2):
    """Yield every feasible ColorProfile exactly once, in nested lex order."""
    check_moment(n, r, m, m2)
    for base, fresh, dup, rowh, colh, _, d, spare, lcaps, rcaps in _prefixes(
        n, r, m, m2, _capped_compositions(m, (m,) * r)
    ):
        for dvec in _capped_compositions(d, spare):
            for lmat, _ in _offdiag_rowsum_matrices(r, dvec, lcaps):
                for rmat, _ in _offdiag_rowsum_matrices(r, dvec, rcaps):
                    yield ColorProfile(base, fresh, dup, rowh, colh, lmat, rmat)


def validate_profile(profile, n, r, m, m2):
    """Check every structural constraint of a profile; raise DomainError if any fails."""

    def ensure(cond, what):
        if not cond:
            raise DomainError(f"profile violates: {what} ({profile})")

    p = profile
    fields = [p.base, p.fresh, p.dup]
    mats = [p.row_hits, p.col_hits, p.cross_rows, p.cross_cols]
    ensure(all(len(f) == r for f in fields), "per-color tuples have length r")
    for mat in mats:
        ensure(len(mat) == r and all(len(row) == r for row in mat), "matrices are r x r")
        ensure(all(mat[i][i] == 0 for i in range(r)), "matrix diagonals are zero")
        ensure(all(v >= 0 for row in mat for v in row), "counts are non-negative")
    ensure(all(v >= 0 for f in fields for v in f), "counts are non-negative")
    ensure(sum(p.base) == m, "base sizes sum to m")
    row_hosts, col_hosts, cross_row_hosts, cross_col_hosts = map(_column_sums, mats)
    fresh, row_hit, col_hit = sum(p.fresh), sum(row_hosts), sum(col_hosts)
    ensure(fresh + sum(p.dup) + row_hit + col_hit + sum(cross_row_hosts) == m2,
           "second-placement classes sum to m2")
    ensure(
        _row_sums(p.cross_cols) == _row_sums(p.cross_rows),
        "cross row sums match across the two host matrices",
    )
    ensure(fresh <= n - m, "fresh count fits outside used rows/columns")
    ensure(fresh + row_hit + m <= n, "row hits fit on fresh columns")
    ensure(fresh + col_hit + m <= n, "col hits fit on fresh rows")
    loads = _loads(p)
    for i in range(r):
        ensure(p.dup[i] <= p.base[i], "dups fit in the base cells of their color")
        ensure(
            p.dup[i] + row_hosts[i] <= p.base[i],
            "row hits fit on undup'd rows of the host color",
        )
        ensure(
            p.dup[i] + col_hosts[i] <= p.base[i],
            "col hits fit on undup'd columns of the host color",
        )
        ensure(
            p.dup[i] + row_hosts[i] + cross_row_hosts[i] <= p.base[i],
            "cross hits fit on remaining rows of the host color",
        )
        ensure(
            p.dup[i] + col_hosts[i] + cross_col_hosts[i] <= p.base[i],
            "cross hits fit on remaining columns of the host color",
        )
        ensure(loads[i] <= n, "forced cells of each color fit in the matrix")


# ---------------------------------------------------------------------------
# the seven counting factors


def _base_integer(base, n, m) -> int:
    """Placements of m cells on an n x n board with color split ``base``, before 1/(n!)^r."""
    return comb(n, m) ** 2 * factorial(m) ** 2 // prod(map(factorial, base))


def _dup_integer(base, dup) -> int:
    """Duplicated cells: pick which base cells of each color to copy."""
    return prod(map(comb, base, dup))


def _host_integer(caps, lefts, mat) -> int:
    """prod_i C(caps_i, hosts_i) hosts_i! over prod of mat's entry factorials.

    Picks which of color i's caps_i free lines host the caps_i - lefts_i
    cells standing on them (mat's column i), and splits those cells by color;
    the division is exact (each column contributes a binomial times a multinomial).
    """
    entries = (v for row in mat if any(row) for v in row if v)  # 0! = 1: skip zeros
    return prod(map(perm, caps, map(sub, caps, lefts))) // prod(map(factorial, entries))


# ---------------------------------------------------------------------------
# expectations


def expectation_perm(n, r, m) -> ExactMoment:
    """Exact E(perm_m) as a sum over color splits of a single placement.

    The split m_1 + .. + m_r = m weighs m!/prod m_i! * prod (n - m_i)!/n!.
    Summed over all C(m+r-1, r-1) splits (the term count), that is entry m
    of the r-fold binomial convolution power of (n - j)!/n! = 1/(n)_j, where
    (f * g)_k = sum_j C(k, j) f_j g_(k-j); it runs on the integers
    a_j = (n - j)!/(n - m)!, so no n! is ever built.  With a = a_0 delta + h
    (delta the unit, h_0 = 0), a^(*r) = sum_k C(r, k) a_0^(r-k) h^(*k), and
    h^(*k) vanishes below degree k, so E = C(n, m)^2 m! times the sum over
    k <= min(m, r) of C(r, k) h^(*k)_m / (n)_m^k: O(m^3) work at any r.
    """
    check_moment(n, r, m)
    falling = perm(n, m)
    h = [0] + [perm(n - j, m - j) for j in range(1, m + 1)]
    power, total = [1] + [0] * m, int(m == 0)  # h^(*0) = delta, and its entry m
    for k in range(1, min(m, r) + 1):  # Horner's rule in (n)_m
        power = [sum(comb(i, j) * power[j] * h[i - j] for j in range(k - 1, i))
                 for i in range(m + 1)]
        total = total * falling + comb(r, k) * power[m]
    value = Fraction(comb(n, m) ** 2 * factorial(m) * total, falling ** min(m, r))
    return ExactMoment(value=value, term_count=comb(m + r - 1, r - 1))


def product_table(n, r, m_max, m2_max) -> list:
    """Every exact E(perm_m perm_m2) with m <= m_max, m2 <= m2_max.

    Returns rows m = 0..m_max, each over m2 = 0..m2_max: ints at r <= 2,
    Fractions at r >= 3.  At r = 1, A is a permutation matrix and E = C(n, m)
    C(n, m2); r = 2 runs ``_cycle_index_table``, r >= 3
    ``_path_cycle_table``, which refuses with CapacityError when its bound on
    the coefficients it keeps passes TABLE_STATE_BUDGET.
    """
    check_moment(n, r, m_max, m2_max)
    if r == 1:
        return [[comb(n, m) * comb(n, m2) for m2 in range(m2_max + 1)]
                for m in range(m_max + 1)]
    if r == 2:
        return _cycle_index_table(n, m_max, m2_max)
    return _path_cycle_table(n, r, m_max, m2_max)


def _cycle_index_table(n, m_max, m2_max):
    """``product_table`` at r = 2, from a linear recurrence in n.

    A = P1 + P2 has the profile of I + sigma, sigma = P1^-1 P2 uniform, and
    a sigma-cycle of length c has matching polynomial g_c(z) = a^c + b^c,
    with a + b = s = 1 + 2z and ab = q = z^2.  So sum_n F_n t^n = exp(sum_c
    g_c(z) g_c(w) t^c / c) = 1/D(t), with s' = 1 + 2w, q' = w^2 and

      D(t) = 1 - ss' t + (q's^2 + qs'^2 - 2qq') t^2 - qq'ss' t^3 + q^2 q'^2 t^4,

    and E(perm_m perm_m2) = [z^m w^m2] F_n.  Each F_j, cut at degree
    (m_max, m2_max), is packed into one int (Kronecker substitution): the
    coefficient of z^i w^k fills the B-bit slot i W + k, and W = m2_max + 5
    leaves room for the w^4 of D before each step masks the cut back in.
    F_j's coefficients are E's at dimension j: non-negative and at most
    C(j, m) C(j, m2) 2^(m+m2), as perm_m <= C(j, m) 2^m.  A step's positive
    and negative parts are each under 32 times that, which fixes B, so no
    slot carries and the difference of the masked parts is exact.  That is
    O(n) shifts and adds of O(m_max m2_max B)-bit ints.
    """
    top = comb(n, min(m_max, n // 2)) * comb(n, min(m2_max, n // 2)) << m_max + m2_max + 5
    size = -(-top.bit_length() // 8)  # slot bytes
    width = m2_max + 5
    w1, z1 = 8 * size, 8 * size * width  # shifts that multiply by w and by z
    mask = sum(((1 << w1 * (m2_max + 1)) - 1) << z1 * i for i in range(m_max + 1))

    def times(f, x):  # f (1 + 2z) at x = z1, f (1 + 2w) at x = w1
        return f + (f << x + 1)

    qq = 2 * z1 + 2 * w1  # the shift that multiplies by qq' = z^2 w^2
    f4 = f3 = f2 = 0
    f1 = 1  # F_0
    for _ in range(n):
        up = times(times(f1 + (f3 << qq), w1), z1) + (f2 << qq + 1)
        down = ((times(times(f2, z1), z1) << 2 * w1) + (times(times(f2, w1), w1) << 2 * z1)
                + (f4 << 2 * qq))
        f4, f3, f2, f1 = f3, f2, f1, (up & mask) - (down & mask)
    data = f1.to_bytes(size * (width * m_max + m2_max + 1), "little")
    return [[int.from_bytes(data[o:o + size], "little")
             for o in range(size * width * m, size * (width * m + m2_max + 1), size)]
            for m in range(m_max + 1)]


def _longest_path(top, m_max, m2_max):
    """The most cells a path component of ``_path_cycle_table`` can have.

    A path of 2i - 1 cells puts i in one placement and i - 1 in the other,
    one of 2i cells i in each, and no component spans more than top rows.
    """
    return min(2 * top - 1, 2 * min(m_max, m2_max) + 1)


def _table_state_bound(r, top, m_max, m2_max):
    """An upper bound on the coefficients ``_path_cycle_table`` keeps.

    Its g_(a, b), a <= b <= top, holds a coefficient per (i, j, loads).  The
    i cells of M lie on distinct rows and columns, as do the j of M', and
    every used line holds a cell, so max(i, j) <= a <= b <= i + j; the loads
    sum to between max(i, j) (a dup of one color counts once) and i + j.
    Before them come the path polynomials p_0..p_L, L = ``_longest_path``,
    with a monomial per load tuple of sum l; the r vectors of two
    consecutive lengths l, each keyed by the loads of sum l that use its
    color; and the cycles, of 2i cells for i <= min(m_max, m2_max, top),
    the first with the r dups of one color.
    """
    longest = _longest_path(top, m_max, m2_max)

    def with_color(length):  # load tuples of sum length that use a given color
        return comb(length + r - 2, r - 1) if length > 0 else 0

    total = (comb(max(longest, 0) + r, r)
             + r * (with_color(longest - 1) + with_color(longest))
             + r + sum(comb(2 * i + r - 1, r - 1)
                       for i in range(1, min(m_max, m2_max, top) + 1)))
    for i in range(m_max + 1):
        for j in range(m2_max + 1):
            span = min(i + j, top) - max(i, j) + 1  # values a may take
            if span > 0:
                loads = comb(i + j + r, r) - comb(max(i, j) - 1 + r, r)
                total += span * (span + 1) // 2 * loads
    return total


def _path_cycle_table(n, r, m_max, m2_max):
    """``product_table`` at any r, from the paths and cycles of two placements.

    Expand both subpermanents over placements M (m cells) and M' (m2 cells)
    and color each cell by the permutation that covers it.  Color k's cells
    must form a partial permutation of some load l_k, completed in (n - l_k)!
    ways, so (n!)^r E = sum_(a,b) C(n, a) C(n, b) [z^m w^m2] Phi(g_(a,b)),
    Phi(x^l) = prod_k (n - l_k)!, where g_(a,b) sums the unions M u M' on a
    given a rows and b columns, each weighted by z^|M| w^|M'| and by its
    color polynomial in x_1..x_r.  Cells sharing a line lie in different
    placements and must differ in color, and a union splits into components
    (D = diag(x), K = J - I, colors of adjacent cells differ):

      component           rows, cols   z, w          copies      colors
      dup (cell in M, M')  1, 1        zw            1           sum_k x_k + sum_(k!=l) x_k x_l
      path, 2i - 1 cells   i, i        z^i w^(i-1),  i!^2 each   1' D (K D)^(2i-2) 1
                                       z^(i-1) w^i
      path, 2i cells       i+1, i or   z^i w^i       (i+1)! i!   1' D (K D)^(2i-1) 1
                           i, i+1                    each
      cycle, 2i cells      i, i        z^i w^i       i! (i-1)!   tr((D K)^(2i)), i >= 2

    A dup of two colors is the i = 1 cycle, and the dups of one color add
    1' D 1.

    Rooting each union at its lowest row, g_(0,0) = 1 and g_(a,b) sums, over
    the components of s rows and t columns, C(a-1, s-1) C(b, t) times the
    component's copies, colors and z, w monomial times g_(a-s, b-t);
    transposing shows g_(a,b) = g_(b,a), so only a <= b is kept.  The path
    polynomials come from the vector D (K D)^(l-1) 1, and with p_l the path
    polynomial of l cells (p_0 = 1) and P_j = sum x_k^j, -log det(I - t D K)
    gives the cycles tr((D K)^L) = P_L + sum_(j=1..L) (-1)^(j-1) j P_j
    p_(L-j) at even L.  Coefficients are non-negative ints
    kept per (i, j), i <= m_max and j <= m2_max, in dicts keyed by the loads
    packed into one int, so multiplying monomials adds keys.  Both placements
    together use top = min(n, m_max + m2_max) rows at most, so the
    completions are taken as (n - l)!/(n - top)! and the sum divided by
    (n)_top^r.  Only paths of up to ``_longest_path`` cells fit in the
    table, so no longer one is built.  CapacityError, before any of this,
    when ``_table_state_bound`` passes TABLE_STATE_BUDGET.
    """
    top = min(n, m_max + m2_max)
    bound = _table_state_bound(r, top, m_max, m2_max)
    if bound > TABLE_STATE_BUDGET:
        raise CapacityError(
            f"product table keeps up to {bound} coefficients, over budget {TABLE_STATE_BUDGET} "
            f"at (n={n}, r={r}, m_max={m_max}, m2_max={m2_max})")
    bits = (2 * top + 1).bit_length()  # a field per color; P_L reaches degree 2 top
    xs = [1 << bits * k for k in range(r)]

    longest = _longest_path(top, m_max, m2_max)
    paths = [{0: 1}]  # p_l for l = 0..longest; vec is D (K D)^(l-1) 1
    vec = [{x: 1} for x in xs]
    for length in range(1, longest + 1):
        if length > 1:
            vec = [{key + x: c - poly.get(key, 0) for key, c in total.items()
                    if c != poly.get(key, 0)} for x, poly in zip(xs, vec)]
        total = defaultdict(int)
        for poly in vec:
            for key, c in poly.items():
                total[key] += c
        paths.append(total)
    del vec

    def cycle(length):
        tr = defaultdict(int, {length * x: 1 for x in xs})
        for j in range(1, length + 1):
            sign = j if j % 2 else -j
            for key, c in paths[length - j].items():
                for x in xs:
                    tr[key + j * x] += sign * c
        return {key: c for key, c in tr.items() if c}

    comps = defaultdict(list)  # (s, t) -> [(z degree, w degree, copies, colors)]

    def component(s, t, di, dj, copies, colors):
        if di <= m_max and dj <= m2_max:
            comps[s, t].append((di, dj, copies, colors))

    for i in range(1, (longest + 1) // 2 + 1):
        component(i, i, i, i - 1, factorial(i) ** 2, paths[2 * i - 1])
        component(i, i, i - 1, i, factorial(i) ** 2, paths[2 * i - 1])
        if i <= min(m_max, m2_max):
            colors = cycle(2 * i)
            if i == 1:  # the 2-cycle is a dup of two colors; add the dups of one
                colors.update(paths[1])  # (degree 1; the 2-cycle's keys have degree 2)
            component(i, i, i, i, factorial(i) * factorial(i - 1), colors)
            if i < top:
                copies = factorial(i + 1) * factorial(i)
                component(i + 1, i, i, i, copies, paths[2 * i])
                component(i, i + 1, i, i, copies, paths[2 * i])

    tables = {(0, 0): {(0, 0): {0: 1}}}  # g_(a,b) at a <= b: (i, j) -> load key -> coefficient
    for b in range(1, top + 1):
        for a in range(1, b + 1):
            g = {}
            for (s, t), parts in comps.items():
                if s > a or t > b:
                    continue
                src = tables.get((a - s, b - t) if a - s <= b - t else (b - t, a - s))
                if not src:
                    continue
                scale = comb(a - 1, s - 1) * comb(b, t)
                for (i, j), poly in src.items():
                    for di, dj, copies, colors in parts:
                        if i + di <= m_max and j + dj <= m2_max:
                            out = g.get((i + di, j + dj))
                            if out is None:
                                out = g[i + di, j + dj] = defaultdict(int)
                            copies *= scale
                            for key, c in colors.items():
                                c *= copies
                                for key2, c2 in poly.items():
                                    out[key + key2] += c * c2
            if g:
                tables[a, b] = g

    sums = defaultdict(lambda: defaultdict(int))  # (i, j) -> load key -> sum_(a,b) C(n,a) C(n,b) g
    for (a, b), g in tables.items():
        lines = comb(n, a) * comb(n, b) << (a < b)  # g_(b,a) = g_(a,b)
        for ij, poly in g.items():
            out = sums[ij]
            for key, c in poly.items():
                out[key] += lines * c
    falls = [perm(n - load, top - load) for load in range(top + 1)]  # (n - l)!/(n - top)!
    field = (1 << bits) - 1
    weights = {key: prod(falls[key >> bits * k & field] for k in range(r))
               for key in set().union(*sums.values())}
    rows = [[0] * (m2_max + 1) for _ in range(m_max + 1)]
    for (i, j), poly in sums.items():
        rows[i][j] = sum(map(mul, poly.values(), map(weights.__getitem__, poly)))
    denominator = perm(n, top) ** r
    return [[Fraction(v, denominator) for v in row] for row in rows]


def _walk(n, r, m, m2, term_budget):
    """The collapsed profile sum over one non-decreasing base split per orbit.

    Yields (count, orbit, prefix, wd, left, right, dvec, lcaps, rcaps) per
    prefix (base, fresh, dup, rowh, colh) and cross-hit split dvec with both
    sides non-empty, in profile_iterator's order.  count is the running raw
    profile count, checked against term_budget; wd = W * prod_i (spare_i -
    d_i)!/(n - K)! d_i!, K = min(n, m + m2), as no color is forced on more
    than K cells, so no (n - load)! is built; left and right are the
    per-call table entries (L, count, Hmax) of (dvec, lcaps) and (dvec,
    rcaps).  A table stops past
    term_budget matrices with a partial L, which is never yielded: its count
    is over budget, so pairing it with a non-empty side raises.
    """
    refusal = f"profile count exceeded budget {term_budget} at (n={n}, r={r}, m={m}, m2={m2})"
    if term_budget < 1:
        # every input has a profile (A holds a permutation matrix): refuse
        # before building any hit list or cross-hit table
        raise CapacityError(refusal)
    floor = n - min(n, m + m2)
    table = {}

    def cross(dvec, caps):
        hit = table.get((dvec, caps))
        if hit is None:
            total = count = top = 0
            for mat, lefts in _offdiag_rowsum_matrices(r, dvec, caps):
                count += 1
                if count > term_budget:
                    break
                h = _host_integer(caps, lefts, mat)
                total += h
                if h > top:
                    top = h
            hit = table[dvec, caps] = (total, count, top)
        return hit

    count = 0
    for base in rising_splits(m, r):
        orbit = factorial(r) // prod(map(factorial, Counter(base).values()))
        for *prefix, w, d, spare, lcaps, rcaps in _prefixes(n, r, m, m2, [base]):
            for dvec in _capped_compositions(d, spare):
                left = cross(dvec, lcaps)
                if left[1]:
                    right = cross(dvec, rcaps)
                    if right[1]:
                        count += orbit * left[1] * right[1]
                        if count > term_budget:
                            raise CapacityError(refusal)
                        wd = prod((perm(sp - di, sp - di - floor) * factorial(di)
                                   for sp, di in zip(spare, dvec)), start=w)
                        yield count, orbit, prefix, wd, left, right, dvec, lcaps, rcaps


def _walk_denominator(n, r, m, m2):
    """(n!)^r over the (n - K)!^r that ``_walk`` leaves out of its terms."""
    return perm(n, min(n, m + m2)) ** r


def expectation_product(n, r, m, m2, term_budget=TERM_BUDGET_DEFAULT) -> ExactMoment:
    """Exact E(perm_m * perm_m2): the profile sum, collapsed over cross hits and colors.

    term_count is the raw profile count.  CapacityError as soon as the
    running count passes term_budget; it is checked after each cross-hit
    split, and a cross-hit table stops growing past term_budget matrices.
    """
    check_moment(n, r, m, m2)
    total = count = 0
    for count, orbit, _, wd, left, right, *_ in _walk(n, r, m, m2, term_budget):
        total += orbit * wd * left[0] * right[0]
    return ExactMoment(value=Fraction(total, _walk_denominator(n, r, m, m2)), term_count=count)


def argmax_profile(n, r, m, m2, term_budget=TERM_BUDGET_DEFAULT):
    """The profile with the largest term, first one in profile_iterator order on ties.

    Returns (profile, value).  Relabelling keeps a term, so the first largest
    lies in a non-decreasing base split, which ``_walk`` visits in
    profile_iterator's order.  Per prefix and cross-hit split the term is
    wd * H(lmat, lcaps) * H(rmat, rcaps) with lmat and rmat independent, so
    its first largest pairs each side's first matrix of largest H, found
    after the walk from the winning step's dvec, caps and largest H.  The
    budget is expectation_product's.
    Useful for checking that the dominant term spreads counts evenly.
    """
    check_moment(n, r, m, m2)
    best, best_w = None, -1
    for _, _, prefix, wd, (_, _, lh), (_, _, rh), *step in _walk(n, r, m, m2, term_budget):
        value = wd * lh * rh
        if value > best_w:
            best_w = value
            best = prefix, step, lh, rh
    prefix, (dvec, lcaps, rcaps), lh, rh = best

    def first_largest(caps, top):
        return next(mat for mat, lefts in _offdiag_rowsum_matrices(r, dvec, caps)
                    if _host_integer(caps, lefts, mat) == top)

    profile = ColorProfile(*prefix, first_largest(lcaps, lh), first_largest(rcaps, rh))
    return profile, Fraction(best_w, _walk_denominator(n, r, m, m2))
