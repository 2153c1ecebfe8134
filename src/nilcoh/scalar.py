"""Symbolic coefficients: rational functions over Q(i) in the deformation
parameters and their (independent) conjugates.

A parameter t and its conjugate conj(t) are separate symbols; evaluation
substitutes z for t and conj(z) for conj(t), which is exactly how |t|^2 =
t*conj(t) acquires its value.  Expressions are normalized as fractions of
multivariate polynomials so that "is this coefficient zero" is decidable;
no gcd cancellation is attempted, so nested fractions expand (a coefficient
of the four-parameter Iwasawa family reaches 758/798 terms of degree 20).
Division by a symbolically-zero denominator fails at construction; division
that only vanishes at specific parameter values fails at evaluation time.

A monomial is packed into one int, an exponent vector with a fixed-width
slot per symbol, so multiplying monomials is adding ints.  A polynomial
product brings each operand to one denominator, accumulates Gaussian
integers per monomial, and normalises each surviving coefficient once; the
coefficients stored are GaussRats as everywhere else.  Nothing observable
depends on the packing: monomials are ordered (printed, compared for the
canonical lead) as the sorted tuples of ((name, barred), exponent) pairs
they decode to.

Evaluation does not read the expanded fraction.  Every expression built
from a parameter also records the operations that built it, as a DAG of
nodes, and `evaluate` runs that DAG as a straight-line program over Q(i),
one value per node.  Where the program divides by zero or reads an
unassigned parameter, evaluation falls back to the expanded fraction, so
values and error messages are those of the expanded route: when the program
succeeds, every factor of the expanded denominator (an intermediate
denominator or the numerator of a divisor) was nonzero, and both routes
give the same element of Q(i).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .gauss import GaussRat, InternalError, _normal, term_sum

# A polynomial is a dict {monomial: GaussRat} of nonzero coefficients.  A
# monomial is an int exponent vector: each symbol (name, barred) owns a
# _WIDTH-bit slot, assigned on first use from an append-only table, and its
# exponent is the value of that slot.  So 0 is the constant monomial and the
# product of two monomials is their sum.  Exponents stay below the top bit
# of their slot, so a sum never carries into the next slot; a sum that sets
# a top bit raises InternalError instead of wrapping.  Slot order is the
# order of first use and means nothing: whatever orders monomials (the
# printed term order, the canonical lead of a denominator) orders
# them by the decoded tuple of sorted ((name, barred), exponent) pairs, so
# no output depends on which symbol was seen first.

_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
_SLOT = {}  # (name, barred) -> slot
_SYMBOL = []  # slot -> (name, barred)
_GUARD = 0  # the top bit of every slot in use


def _m_symbol(name, barred):
    """The monomial name (barred: conj(name)) to the first power."""
    global _GUARD
    sym = (name, barred)
    j = _SLOT.get(sym)
    if j is None:
        j = _SLOT[sym] = len(_SYMBOL)
        _SYMBOL.append(sym)
        _GUARD |= 1 << (j * _WIDTH + _WIDTH - 1)
    return 1 << (j * _WIDTH)


def _m_slots(m):
    """[(symbol, exponent)] for the symbols of the monomial m, in slot order."""
    out = []
    j = 0
    while m:
        e = m & _MASK
        if e:
            out.append((_SYMBOL[j], e))
        m >>= _WIDTH
        j += 1
    return out


@lru_cache(maxsize=1 << 14)
def _decode(m):
    """m as the sorted tuple of ((name, barred), exponent) pairs."""
    out = _m_slots(m)
    out.sort()
    return tuple(out)


@lru_cache(maxsize=1 << 14)
def _m_str(m):
    """m as printed: the factors in tuple order joined by '*'."""
    return "*".join(
        (f"conj({name})" if bar else name) + (f"^{e}" if e > 1 else "")
        for (name, bar), e in _decode(m)
    )


def _overflow(m):
    (name, bar), _ = next(s for s in _m_slots(m) if s[1] >> (_WIDTH - 1))
    name = f"conj({name})" if bar else name
    raise InternalError(f"the exponent of {name} overflows its {_WIDTH}-bit slot")


def _p_const(c):
    return {0: c} if c else {}

_ZERO = GaussRat(0)
_ONE = GaussRat(1)
_P_ONE = {0: _ONE}


def _p_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        s = v if s is None else s + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _p_neg(a):
    return {k: -v for k, v in a.items()}


def _integral(a):
    """(q, [(monomial, re, im)]) with a = sum (re + im*i)/q * monomial,
    re, im and q integers."""
    q = 1
    for v in a.values():
        if q % v._q:
            q = q * v._q // gcd(q, v._q)
    return q, [(k, v._a * (q // v._q), v._b * (q // v._q)) for k, v in a.items()]


def _p_mul(a, b):
    """The product polynomial.  Each operand is brought to one denominator,
    the Gaussian-integer term products accumulate per monomial, and each
    sum is normalised once.  Monomials appear in the order of their first
    term product, a's terms outermost."""
    guard = _GUARD
    if len(a) > 1 and len(b) <= 1:
        a, b = b, a
    if len(a) <= 1:
        # no two term products share a monomial, and none is zero
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                if k & guard:
                    _overflow(k)
                out[k] = v1 * v2
        return out
    qa, ta = _integral(a)
    qb, tb = _integral(b)
    re = defaultdict(int)
    im = defaultdict(int)
    for k1, a1, b1 in ta:
        for k2, a2, b2 in tb:
            k = k1 + k2
            re[k] += a1 * a2 - b1 * b2
            im[k] += a1 * b2 + b1 * a2
    q = qa * qb
    out = {}
    for k, r in re.items():
        if k & guard:
            _overflow(k)
        i = im[k]
        if r or i:
            out[k] = _normal(r, i, q)
    return out


def _p_conj(a):
    out = {}
    for k, v in a.items():
        km = 0
        for (name, bar), e in _m_slots(k):
            km += _m_symbol(name, 1 - bar) * e
        out[km] = v.conj()
    return out


def _p_eval(a, assign):
    total = _ZERO
    for k, v in a.items():
        term = v
        for (name, bar), e in _decode(k):
            try:
                val = assign[name]
            except KeyError:
                raise ScalarEvalError(f"unassigned parameter '{name}'") from None
            if bar:
                val = val.conj()
            for _ in range(e):
                term = term * val
        total = total + term
    return total


def _p_params(a):
    names = set()
    for k in a:
        for (name, _bar), _e in _m_slots(k):
            names.add(name)
    return names


def _p_size(a):
    """The terms of a, each counted once per started 64 bits of its
    coefficient's numerators and denominator."""
    return sum(1 + (abs(c._a) | abs(c._b) | c._q).bit_length() // 64 for c in a.values())


def _p_str(a):
    terms = []
    for k in sorted(a, key=_decode):
        c = a[k]
        if c._q == 1 and not c._b:  # an integer prints as itself
            cs = str(c._a)
        else:
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
        terms.append((cs, _m_str(k)))
    return term_sum(terms)


class ScalarEvalError(ArithmeticError):
    """Raised when evaluation hits a vanishing denominator or a free parameter."""


# A node is a tuple (op, a, b).  ("param", name, None) reads the assignment;
# ("leaf", num, den) is a node-less operand, evaluated on its expanded form;
# "add", "mul" and "div" take two operand nodes, "neg" and "conj" take a and
# leave b None.  Nodes hold nodes, never ScalarExprs, so the expanded
# intermediate fractions are not kept alive by the DAG.


def _operand(e):
    return e.node if e.node is not None else ("leaf", e.num, e.den)


def _node(op, a, b=None):
    """The node of op on a (and b), or None when neither carries a node."""
    if a.node is None and (b is None or b.node is None):
        return None
    return (op, _operand(a), None if b is None else _operand(b))


def _compile(root):
    """The DAG under root as a straight-line program, operands first.

    Each instruction is (op, a, b) with operand nodes replaced by their
    positions in the program; a node shared by several parents gets one
    position.  Iterative, so long sums do not meet the recursion limit.
    """
    slot = {}  # id(node) -> position; every node stays alive under root
    program = []
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in slot:
            stack.pop()
            continue
        op, a, b = node
        if op in ("param", "leaf"):
            program.append(node)
        else:
            pending = [k for k in (a, b) if k is not None and id(k) not in slot]
            if pending:
                stack.extend(pending)
                continue
            program.append((op, slot[id(a)], None if b is None else slot[id(b)]))
        slot[id(node)] = len(program) - 1
        stack.pop()
    return program


def _run(program, assign):
    """The program's value at assign, or None where a step divides by zero
    or reads an unassigned parameter."""
    vals = []
    push = vals.append
    for op, a, b in program:
        if op == "mul":
            push(vals[a] * vals[b])
        elif op == "add":
            push(vals[a] + vals[b])
        elif op == "div":
            if vals[b].is_zero():
                return None
            push(vals[a] / vals[b])
        elif op == "neg":
            push(-vals[a])
        elif op == "conj":
            push(vals[a].conj())
        elif op == "param":
            z = assign.get(a)
            if z is None:
                return None
            push(z)
        else:
            try:
                push(_p_eval(a, assign) / _p_eval(b, assign))
            except (ScalarEvalError, ZeroDivisionError):
                return None
    return vals[-1]


class ScalarExpr:
    """A fraction num/den of polynomials over Q(i) in parameter symbols."""

    __slots__ = ("num", "den", "node", "_program")

    def __init__(self, num, den=None, node=None):
        if den is None:
            den = _P_ONE
        if not den:
            raise ZeroDivisionError("symbolically zero denominator")
        if not num:
            den = _P_ONE
        else:
            # canonical scaling: leading denominator coefficient becomes 1;
            # the constant monomial 0 decodes to (), the least tuple
            lead = den[0] if 0 in den else den[min(den, key=_decode)]
            if lead != _ONE:
                inv = _ONE / lead
                num = {k: v * inv for k, v in num.items()}
                den = {k: v * inv for k, v in den.items()}
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "_program", None)  # compiled on first evaluate

    def __setattr__(self, name, value):
        raise AttributeError("ScalarExpr is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        if not isinstance(c, GaussRat):
            c = GaussRat(c)
        return cls(_p_const(c))

    @classmethod
    def param(cls, name):
        return cls({_m_symbol(name, 0): _ONE}, node=("param", name, None))

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_const(self):
        return all(not m for m in self.num) and all(not m for m in self.den)

    def const_value(self):
        if not self.is_const():
            raise InternalError(
                f"const_value of a scalar in {', '.join(sorted(self.params()))}"
            )
        return _p_eval(self.num, {}) / _p_eval(self.den, {})

    def params(self):
        return _p_params(self.num) | _p_params(self.den)

    def exponent_over(self, bound):
        """The first symbol (t or conj(t)) whose exponent in num or den
        exceeds bound, with that exponent; None when there is none."""
        for m in (*self.num, *self.den):
            for (name, bar), e in _decode(m):
                if e > bound:
                    return (f"conj({name})" if bar else name), e
        return None

    def work(self, op, other):
        """What self op other costs, for op one of + - * /: the polynomial
        products it multiplies out, each as the product of the operands'
        sizes (_p_size), or the operands' sizes where a sum needs none."""
        na, da, nb, db = map(_p_size, (self.num, self.den, other.num, other.den))
        if op == "*":
            return na * nb + da * db
        if op == "/":
            return na * db + da * nb
        if self.den == other.den:
            return na + nb
        return na * db + nb * da + da * db

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        node = _node("add", self, other)
        if self.den == other.den:
            return ScalarExpr(_p_add(self.num, other.num), self.den, node)
        return ScalarExpr(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den),
            node,
        )

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(_p_neg(self.num), self.den, _node("neg", self))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return ScalarExpr(
            _p_mul(self.num, other.num),
            _p_mul(self.den, other.den),
            _node("mul", self, other),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by symbolically zero scalar")
        return ScalarExpr(
            _p_mul(self.num, other.den),
            _p_mul(self.den, other.num),
            _node("div", self, other),
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conj(self):
        return ScalarExpr(_p_conj(self.num), _p_conj(self.den), _node("conj", self))

    def at(self, name, z):
        """This polynomial with name set to z in Q(i), and no DAG node.  conj(name)
        is not touched: the nondegeneracy polynomial P has no conjugate symbols."""
        if self.den != _P_ONE:
            raise InternalError(f"at() of the non-polynomial {self}")
        shift = _m_symbol(name, 0).bit_length() - 1
        out = defaultdict(lambda: _ZERO)
        for k, v in self.num.items():
            e = k >> shift & _MASK
            for _ in range(e):
                v = v * z
            out[k - (e << shift)] += v
        return ScalarExpr({k: v for k, v in out.items() if not v.is_zero()})

    def evaluate(self, assign) -> GaussRat:
        if self.node is not None:
            if self._program is None:
                object.__setattr__(self, "_program", _compile(self.node))
            value = _run(self._program, assign)
            if value is not None:
                return value
        d = _p_eval(self.den, assign)
        if d.is_zero():
            raise ScalarEvalError(f"denominator {_p_str(self.den)} vanishes at the assignment")
        return _p_eval(self.num, assign) / d

    # -- equality is mathematical (cross-multiplication), not structural ----

    def __eq__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = _coerce(other)
        if other.is_const():
            return _equals_const(self, other.const_value())
        if self.is_const():
            return _equals_const(other, self.const_value())
        return _p_add(_p_mul(self.num, other.den), _p_neg(_p_mul(other.num, self.den))) == {}

    def __hash__(self):
        # == cross-multiplies (t/t == 1): no hash of a parametric fraction agrees
        if not self.is_const():
            raise TypeError(f"unhashable: a scalar in {', '.join(sorted(self.params()))}")
        return hash(self.const_value())

    def __str__(self):
        ns = _p_str(self.num)
        if self.den == _P_ONE:
            return ns
        ds = _p_str(self.den)
        if len(self.num) > 1 or ns.startswith("-"):
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"ScalarExpr({self})"


def _equals_const(e, c):
    """num/den == c without cross-multiplying: for c != 0, num = c*den
    term by term."""
    if c.is_zero():
        return not e.num
    return e.num.keys() == e.den.keys() and all(v == c * e.den[m] for m, v in e.num.items())


# what arithmetic and == accept as the other operand
_OPERANDS = (ScalarExpr, int, Fraction, GaussRat)


def _coerce(x):
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, _OPERANDS):
        return ScalarExpr.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar")


S_ZERO = ScalarExpr.const(0)
S_ONE = ScalarExpr.const(1)
S_I = ScalarExpr.const(GaussRat(0, 1))
