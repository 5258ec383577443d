"""Products of int term dicts on packed exponents, for ``poly`` and ``dring``.

A product in R and a product in R (x) D are one computation: the sums of
s * (left[i] * right[j]) into component k over the int structure constants
(i, j, k, s) of D, where a polynomial product has the 1 x 1 table of Q.
Exponents are packed (Monagan and Pearce, CASC 2007): a :class:`_Packing`
gives variable i a slot of b.bit_length() bits, b a bound on entry i of
every product exponent, so adding packed ints never carries between slots;
``poly`` sizes one per product, ``dring`` one per table from a bound on
total degrees, the same for every slot.
:func:`add_products` runs the int loop or, on large dense operands,
Kronecker substitution (Kronecker 1882; Harvey, JSC 44, 2009), which makes
each component one big int and each (i, j) one big-int multiply.
"""

import math
from fractions import Fraction
from itertools import accumulate
from operator import lshift

# the structure constants of Q over itself: the table of a polynomial product
_SCALAR_TABLE = ((0, 0, 0, 1),)


def _common_int_terms(term_dicts):
    """The lcm d of the denominators of the coefficients of the term dicts,
    and each dict times d, as an int term dict."""
    den = math.lcm(*[c.denominator for terms in term_dicts for c in terms.values()])
    if den == 1:
        return 1, [{e: c.numerator for e, c in terms.items()} for terms in term_dicts]
    return den, [
        {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        for terms in term_dicts
    ]


def _fraction_terms(terms, den):
    """The Fraction terms of an int term dict over the denominator ``den``,
    with zero terms dropped: one Fraction per surviving term."""
    if den == 1:
        return {e: Fraction(v) for e, v in terms.items() if v}
    return {e: Fraction(v, den) for e, v in terms.items() if v}


class _Packing:
    """A layout that packs an exponent vector into one int, entry i in a slot
    of bounds[i].bit_length() bits, and term dicts key by key; a
    ``dring.PowerTable`` gives every slot one width, a byte until a total
    degree passes 255."""

    __slots__ = ("shifts", "slots")

    def __init__(self, bounds):
        widths = [b.bit_length() for b in bounds]
        self.shifts = list(accumulate(widths, initial=0))[:-1]
        self.slots = [(s, (1 << w) - 1) for s, w in zip(self.shifts, widths)]

    def pack(self, comps):
        """Term dicts on exponent tuples as term dicts on packed exponents."""
        shifts = self.shifts
        return [{sum(map(lshift, e, shifts)): c for e, c in comp.items()} for comp in comps]

    def unpack(self, terms):
        """The int term dict on exponent tuples of a packed int term dict,
        zero terms dropped: each surviving term unpacked once."""
        slots = self.slots
        return {tuple([(k >> s) & m for s, m in slots]): v for k, v in terms.items() if v}


# Kronecker substitution costs about _DENSE_RATIO loop products per index,
# and (size * width) ** log2(3) / _DENSE_MULTIPLY for its Karatsuba multiply,
# per table entry: a fit to the times of both paths on 231 operand shapes
_DENSE_WORK, _DENSE_RATIO, _DENSE_MULTIPLY = 1024, 2, 2000


def add_products(sums, table, left, right, factor, packing):
    """sums[k] += factor * s * (left[i] * right[j]) over the int structure
    constants (i, j, k, s), components and sums int term dicts on the packed
    exponents of ``packing``, every product exponent within its slot: by the
    loop or, where the cost above is lower, by :func:`_kronecker`, whose
    mixed radix is read off the operands' slots."""
    work = len(table) * max(map(len, left)) * max(map(len, right))  # a bound, cheap
    if work >= _DENSE_WORK:
        work = sum([len(left[i]) * len(right[j]) for i, j, _, _ in table])
    if work >= _DENSE_WORK:
        keys = [[key for comp in side for key in comp] for side in (left, right)]
        radix = [1 + sum([max([(k >> shift) & mask for k in ks], default=0) for ks in keys])
                 for shift, mask in packing.slots]
        size = math.prod(radix)
        table = [(i, j, k, s) for i, j, k, s in table if left[i] and right[j]]
        bound = sum(  # on the coefficients of a sum
            abs(s) * max(map(abs, left[i].values())) * max(map(abs, right[j].values()))
            * min(len(left[i]), len(right[j])) for i, j, _, s in table)
        width = 1 + bound.bit_length() // 8  # bytes per limb, the top bit spare
        multiply = (size * width) ** math.log2(3) / _DENSE_MULTIPLY
        if work >= len(table) * (_DENSE_RATIO * size + multiply):
            _kronecker(sums, table, left, right, factor, radix, width, packing)
            return
    _add_products(sums, table, left, right, factor)


def _add_products(sums, table, left, right, factor):
    """:func:`add_products` by the loop, on packed exponents."""
    for i, j, k, s in table:
        li = left[i]
        rj = right[j].items()
        if not li or not rj:
            continue
        target = sums[k]
        get = target.get
        fs = factor * s
        for e1, c1 in li.items():
            cc1 = fs * c1
            for e2, c2 in rj:
                e = e1 + e2
                target[e] = get(e, 0) + cc1 * c2


def _kronecker(sums, table, left, right, factor, radix, width, packing):
    """:func:`add_products` by Kronecker substitution: an exponent is a
    mixed-radix index and a component one int with a signed ``width``-byte
    limb per index; each sum is read back limb by limb."""
    size = math.prod(radix)
    slots = [(shift, mask, math.prod(radix[:v])) for v, (shift, mask) in enumerate(packing.slots)]

    def big(comp):
        limbs = [bytearray(size * width), bytearray(size * width)]  # + and - parts
        for key, c in comp.items():
            at = width * sum([((key >> shift) & mask) * w for shift, mask, w in slots])
            limbs[c < 0][at:at + width] = abs(c).to_bytes(width, "little")
        return int.from_bytes(limbs[0], "little") - int.from_bytes(limbs[1], "little")

    lefts = {i: big(left[i]) for i in {i for i, _, _, _ in table}}
    rights = {j: big(right[j]) for j in {j for _, j, _, _ in table}}
    products = {(i, j): lefts[i] * rights[j] for i, j, _, _ in table}
    totals = {}
    for i, j, k, s in table:
        totals[k] = totals.get(k, 0) + s * products[i, j]
    keys = [0]  # the packed exponent at each index
    for (shift, _), r in reversed(list(zip(packing.slots, radix))):
        keys = [key + (e << shift) for key in keys for e in range(r)]
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")  # half per limb
    for k, total in totals.items():
        data = (total + offset).to_bytes(size * width, "little")
        target = sums[k]
        for key, p in zip(keys, range(0, len(data), width)):
            v = int.from_bytes(data[p : p + width], "little")
            if v != half:
                target[key] = target.get(key, 0) + factor * (v - half)
