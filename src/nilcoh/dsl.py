"""Text format for structure equations.

    # comments run to end of line
    algebra "name" dim 4
    param t
    flag invariant_cohomology_is_manifold_cohomology true
    let r = 1/(1-t*conj(t))
    d f3 = f1^F1
    d f4 = r * f1^f2 - (t*r) * f1^F2

Generators are f1..fn (holomorphic) and F1..Fn (their conjugates); structure
equations are given on the holomorphic generators only, each right-hand side
a sum of scalar multiples of two-fold wedges (or the literal 0).  Scalars are
rational expressions in declared parameters, let names, integers, the
imaginary unit i (also as a literal like 2i) and conj(<scalar>).  A let name
is one shared scalar, as is each parameter and literal within one parse.
Unstated differentials vanish.  A unary sign may open a term or appear
inside scalars.  Both '-' and the unicode minus sign are accepted.
parse_scalar and parse_form read a lone scalar or a lone right-hand side in
the same grammar.  Input asking for too much work is refused (the _MAX_*
bounds below) with a positioned DslError, like any other parse error.
"""

from __future__ import annotations

import operator
import re

from .gauss import GaussRat
from .scalar import S_I, ScalarExpr, S_ONE
from .exterior import BigradedElement, mono_str, mono_wedge
from .algebra import AlgebraSpec


class DslError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""
    (?P<WS>[ \t]+)
  | (?P<STRING>"[^"\n]*")
  | (?P<IMAG>\d+i(?![A-Za-z0-9_]))
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[=^+\-*/()])
    """,
    re.VERBOSE,
)

_GEN = re.compile(r"^([fF])([0-9]+)$")

_RESERVED = {"algebra", "dim", "param", "let", "flag", "d", "conj", "i", "true", "false"}

FLAG_NAME = "invariant_cohomology_is_manifold_cohomology"

_MAX_NESTING = 100
_MAX_EXPONENT = 100
# int() refuses longer digit strings (sys.get_int_max_str_digits)
_MAX_DIGITS = 4300
# the most one arithmetic step may cost (ScalarExpr.work); the catalog's
# costliest step, in iwasawa_sigma_family, costs 10734
_MAX_WORK = 1 << 18
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _tokenize_line(text, lineno):
    text = text.replace("−", "-")
    hashpos = _unquoted_hash(text)
    if hashpos is not None:
        text = text[:hashpos]
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        kind = m.lastgroup
        if kind in ("NUMBER", "IMAG") and m.end() - pos > _MAX_DIGITS:
            raise DslError(f"number longer than {_MAX_DIGITS} digits", lineno, pos + 1)
        if kind != "WS":
            tokens.append((kind, m.group(), lineno, pos + 1))
        pos = m.end()
    return tokens


def _unquoted_hash(text):
    in_str = False
    for i, ch in enumerate(text):
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return i
    return None


class _Parser:
    """Single-pass, line-oriented recursive descent."""

    def __init__(self, text, n=None, params=()):
        self.lines = text.split("\n")
        self.name = None
        self.n = n
        self.params = list(params)
        # each parameter, let name and literal read so far, by its text: one
        # object, so one node of the straight-line programs that use it
        self.shared = {name: ScalarExpr.param(name) for name in params}
        self.flag = None
        self.eqs = {}
        self.depth = 0  # open parentheses in the scalar being parsed

    def parse(self):
        for lineno, raw in enumerate(self.lines, start=1):
            toks = _tokenize_line(raw, lineno)
            if not toks:
                continue
            head = toks[0]
            if head[0] == "IDENT" and head[1] == "algebra":
                self._header(toks)
            elif head[0] == "IDENT" and head[1] in ("param", "let"):
                self._declare(toks)
            elif head[0] == "IDENT" and head[1] == "flag":
                self._flag(toks)
            elif head[0] == "IDENT" and head[1] == "d":
                self._equation(toks)
            else:
                raise DslError(
                    f"expected 'algebra', 'param', 'let', 'flag' or 'd', got {head[1]!r}",
                    head[2],
                    head[3],
                )
        if self.n is None:
            raise DslError("missing 'algebra \"name\" dim N' header", 1, 1)
        d_phi = [self.eqs.get(k, BigradedElement.zero()) for k in range(1, self.n + 1)]
        return AlgebraSpec(self.name, self.n, tuple(self.params), d_phi,
                           flag_invariant_ok=self.flag)

    # -- line kinds ---------------------------------------------------------

    def _header(self, toks):
        if self.n is not None:
            raise DslError("duplicate header", toks[0][2], toks[0][3])
        t = _TokStream(toks)
        t.expect_ident("algebra")
        name = t.expect("STRING")[1][1:-1]
        t.expect_ident("dim")
        n = int(t.expect("NUMBER")[1])
        t.expect_end()
        if n < 1:
            raise DslError("dim must be at least 1", toks[0][2], toks[0][3])
        self.name = name
        self.n = n

    def _declare(self, toks):
        """A `param NAME` or a `let NAME = <scalar>` line."""
        self._need_header(toks)
        t = _TokStream(toks)
        kind = "parameter" if t.take()[1] == "param" else "let"
        tok = t.expect("IDENT")
        name = tok[1]
        if name in _RESERVED or _GEN.match(name):
            raise DslError(f"{kind} name {name!r} is reserved", tok[2], tok[3])
        if name in self.shared:
            raise DslError(f"duplicate {kind} {name!r}", tok[2], tok[3])
        if kind == "let":
            t.expect_op("=")
            value = self._scalar_sum(t)
        else:
            self.params.append(name)
            value = ScalarExpr.param(name)
        t.expect_end()
        self.shared[name] = value

    def _flag(self, toks):
        self._need_header(toks)
        t = _TokStream(toks)
        t.expect_ident("flag")
        tok = t.expect("IDENT")
        if tok[1] != FLAG_NAME:
            raise DslError(f"unknown flag {tok[1]!r}", tok[2], tok[3])
        val = t.expect("IDENT")
        if val[1] not in ("true", "false"):
            raise DslError("flag value must be true or false", val[2], val[3])
        t.expect_end()
        self.flag = val[1] == "true"

    def _equation(self, toks):
        self._need_header(toks)
        t = _TokStream(toks)
        t.expect_ident("d")
        gen = t.expect("IDENT")
        m = _GEN.match(gen[1])
        if not m:
            raise DslError(f"expected a generator after 'd', got {gen[1]!r}", gen[2], gen[3])
        if m.group(1) == "F":
            raise DslError(
                "structure equations are given on f1..fn; the conjugates follow",
                gen[2],
                gen[3],
            )
        idx = self._gen_index(m, gen)
        if idx in self.eqs:
            raise DslError(f"duplicate equation for f{idx}", gen[2], gen[3])
        t.expect_op("=")
        self.eqs[idx] = self._rhs(t)

    def _need_header(self, toks):
        if self.n is None:
            raise DslError("the header line must come first", toks[0][2], toks[0][3])

    def _gen_index(self, m, tok):
        idx = int(m.group(2))
        if not 1 <= idx <= self.n:
            raise DslError(
                f"unknown generator {m.group(0)!r} (dim is {self.n})", tok[2], tok[3]
            )
        return idx

    # -- right-hand sides ---------------------------------------------------

    def _rhs(self, t):
        if t.peek() and t.peek()[0] == "NUMBER" and t.peek()[1] == "0" and t.peek(1) is None:
            t.take()
            return BigradedElement.zero()
        total = self._term(t, negate=False)
        while t.peek():
            op = t.expect_op("+", "-")
            total = total + self._term(t, negate=op[1] == "-")
        t.expect_end()
        return total

    def _term(self, t, negate):
        tok = t.peek()
        if tok and tok[0] == "OP" and tok[1] == "-":
            t.take()
            negate = not negate
        coeff = S_ONE
        tok = t.peek()
        if tok is None:
            raise DslError("expected a term", t.last[2], t.last[3] + len(t.last[1]))
        if not (tok[0] == "IDENT" and _GEN.match(tok[1])):
            coeff = self._scalar_product(t)
            nxt = t.peek()
            if nxt and nxt[0] == "OP" and nxt[1] == "*":
                t.take()
        # the coefficient itself, not a product with the wedge's sign: a
        # multiplication by 1 would add a step to its straight-line program
        sign, mono = self._wedge(t)
        if sign == 0:
            return BigradedElement.zero()
        return BigradedElement({mono: -coeff if (sign < 0) != negate else coeff})

    def _wedge(self, t):
        """(sign, monomial) of the two-generator wedge at t."""
        gens = [self._gen_ref(t)]
        while t.peek() and t.peek()[0] == "OP" and t.peek()[1] == "^":
            t.take()
            gens.append(self._gen_ref(t))
        if len(gens) != 2:
            tok = t.last
            raise DslError(
                f"each term must be a wedge of exactly two generators, got {len(gens)}",
                tok[2],
                tok[3],
            )
        return mono_wedge((gens[0],), (gens[1],))

    def _gen_ref(self, t):
        tok = t.expect("IDENT")
        m = _GEN.match(tok[1])
        if not m:
            raise DslError(f"expected a generator, got {tok[1]!r}", tok[2], tok[3])
        idx = self._gen_index(m, tok)
        return (int(m.group(1) == "F"), idx)

    # scalar grammar; a '*' whose right neighbour is a generator belongs to
    # the wedge term, not to the scalar, so the product loop stops there
    def _scalar_sum(self, t):
        v = self._scalar_product(t)
        while True:
            tok = t.peek()
            if tok and tok[0] == "OP" and tok[1] in "+-":
                t.take()
                v = self._apply(tok, v, self._scalar_product(t))
            else:
                return v

    def _scalar_product(self, t):
        v = self._scalar_signed(t)
        while True:
            tok = t.peek()
            if not (tok and tok[0] == "OP" and tok[1] in "*/"):
                return v
            nxt = t.peek(1)
            if (
                tok[1] == "*"
                and nxt
                and nxt[0] == "IDENT"
                and _GEN.match(nxt[1])
            ):
                return v  # the '*' introduces the wedge monomial
            t.take()
            v = self._apply(tok, v, self._scalar_signed(t))

    def _scalar_signed(self, t):
        negate = False
        while (tok := t.peek()) and tok[0] == "OP" and tok[1] == "-":
            t.take()
            negate = not negate
        v = self._scalar_power(t)
        return -v if negate else v

    def _scalar_power(self, t):
        v = self._scalar_atom(t)
        n = 1  # (x^a)^b = x^(a*b): the whole chain counts against the bound
        while t.peek() and t.peek()[0] == "OP" and t.peek()[1] == "^":
            t.take()
            e = t.expect("NUMBER")
            n *= int(e[1])
            if n > _MAX_EXPONENT:
                raise DslError(f"exponent {n} exceeds {_MAX_EXPONENT}", e[2], e[3])
        if n == 1:
            return v
        # square-and-multiply, each product bounded and blamed on the exponent
        times = ("OP", "*", e[2], e[3])
        out = S_ONE
        while n:
            if n & 1:
                out = self._apply(times, out, v)
            n >>= 1
            if n:
                v = self._apply(times, v, v)
        return out

    def _apply(self, op, a, b):
        """a op b for the operator token op, refused before it runs when it
        would cost more than _MAX_WORK (ScalarExpr.work)."""
        _, sym, line, col = op
        work = a.work(sym, b)
        if work > _MAX_WORK:
            raise DslError(
                f"operands of {sym!r} too large: the step costs {work}, more than {_MAX_WORK}",
                line,
                col,
            )
        try:
            return _ARITH[sym](a, b)
        except ZeroDivisionError:
            raise DslError("division by zero", line, col) from None

    def _scalar_atom(self, t):
        tok = t.take()
        if tok is None:
            raise DslError("unexpected end of line in scalar", t.last[2], t.last[3])
        kind, text, line, col = tok
        v = self.shared.get(text)
        if v is not None:
            return v
        if kind == "NUMBER":
            v = self.shared[text] = ScalarExpr.const(int(text))
            return v
        if kind == "IMAG":
            v = self.shared[text] = ScalarExpr.const(GaussRat(0, int(text[:-1])))
            return v
        if kind == "IDENT":
            if text == "i":
                return S_I
            if text == "conj":
                return self._parenthesized(t, t.expect_op("(")).conj()
            if _GEN.match(text):
                raise DslError(
                    f"generator {text!r} cannot appear inside a scalar", line, col
                )
            raise DslError(f"undeclared parameter {text!r}", line, col)
        if kind == "OP" and text == "(":
            return self._parenthesized(t, tok)
        raise DslError(f"unexpected {text!r} in scalar", line, col)

    def _parenthesized(self, t, paren):
        """The scalar after the opening parenthesis paren, up to its ')'."""
        # each level costs a few Python frames; fail before the interpreter does
        if self.depth == _MAX_NESTING:
            raise DslError(f"parentheses nested deeper than {_MAX_NESTING}", paren[2], paren[3])
        self.depth += 1
        v = self._scalar_sum(t)
        t.expect_op(")")
        self.depth -= 1
        return v


class _TokStream:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.last = toks[0]

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
            self.last = tok
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok is None:
            raise DslError(
                f"unexpected end of line (wanted {kind})",
                self.last[2],
                self.last[3] + len(self.last[1]),
            )
        if tok[0] != kind:
            raise DslError(f"expected {kind}, got {tok[1]!r}", tok[2], tok[3])
        return tok

    def expect_ident(self, word):
        tok = self.expect("IDENT")
        if tok[1] != word:
            raise DslError(f"expected {word!r}, got {tok[1]!r}", tok[2], tok[3])
        return tok

    def expect_op(self, *ops):
        tok = self.take()
        if tok is None:
            raise DslError(
                f"unexpected end of line (wanted {' or '.join(ops)})",
                self.last[2],
                self.last[3] + len(self.last[1]),
            )
        if tok[0] != "OP" or tok[1] not in ops:
            raise DslError(
                f"expected {' or '.join(repr(o) for o in ops)}, got {tok[1]!r}",
                tok[2],
                tok[3],
            )
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise DslError(f"unexpected {tok[1]!r}", tok[2], tok[3])


def parse(text):
    """Parse structure-equation source into an AlgebraSpec."""
    return _Parser(text).parse()


def _one_line(text, n, params):
    """A parser on n generators and the given parameters, and the tokens of
    the one-line text it is to read."""
    toks = _tokenize_line(text, 1)
    if not toks:
        raise DslError("empty value", 1, 1)
    return _Parser("", n, params), _TokStream(toks)


def parse_scalar(text, params=()):
    """Parse a scalar such as -i*t or 1/(1-t*conj(t)) in the given parameters."""
    p, t = _one_line(text, 0, params)
    v = p._scalar_sum(t)
    t.expect_end()
    return v


def parse_form(text, n):
    """Parse a parameter-free 2-form on n generators, written as the
    right-hand side of a structure equation, such as f1^f2 + f2^F1."""
    p, t = _one_line(text, n, ())
    return p._rhs(t)


def parse_gauss(text):
    """Parse a Q(i) literal such as 1/2, -i, 1/3+2i, i/2 (for CLI assignments)."""
    v = parse_scalar(text)
    if not v.is_const():
        raise DslError("value must be a constant", 1, 1)
    return v.const_value()


def pretty(spec):
    """Canonical source for an AlgebraSpec; parse(pretty(s)) == s term by term."""
    out = [f'algebra "{spec.name}" dim {spec.n}']
    for pname in spec.params:
        out.append(f"param {pname}")
    if spec.flag_invariant_ok is not None:
        out.append(f"flag {FLAG_NAME} {'true' if spec.flag_invariant_ok else 'false'}")
    for k in range(1, spec.n + 1):
        el = spec.d_phi[k - 1]
        if el.is_zero():
            out.append(f"d f{k} = 0")
            continue
        terms = []
        for m, coeff in el.items():
            mono = mono_str(m)
            if coeff == S_ONE:
                terms.append(mono)
            else:
                terms.append(f"({coeff}) * {mono}")
        out.append(f"d f{k} = " + " + ".join(terms))
    return "\n".join(out) + "\n"
