"""Matrix spec strings: parsing and construction.

Grammar (ASCII, no whitespace):

    spec := "fourier:" INT
          | "fouriergroup:" INT ("x" INT)*
          | "tensor(" spec "," spec ")"
          | "dita(" INT "," INT ";" qsrc ")"
          | "conj(" spec ")" | "transpose(" spec ")" | "adjoint(" spec ")"
          | "file=" PATH
    qsrc := "seed=" UINT64 | "file=" PATH

INT and UINT64 are runs of at most MAX_DIGITS ASCII digits.  Parsing and
sizing a spec need no numpy: `hadtrunc.matrices` is imported only to build.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .errors import SEED_LIMIT, SpecSyntaxError

MAX_DIGITS = 20  # the digits of 2^64 - 1, the largest seed

_CONSTRUCTORS = ("fourier", "fouriergroup", "tensor", "dita", "conj", "transpose",
                 "adjoint", "file")


class FourierSpec(NamedTuple):
    n: int


class FourierGroupSpec(NamedTuple):
    orders: tuple


class TensorSpec(NamedTuple):
    left: object
    right: object


class DitaSpec(NamedTuple):
    m: int
    n: int
    qsource: tuple  # ("seed", int) or ("file", path)


class UnarySpec(NamedTuple):
    op: str  # conj | transpose | adjoint
    inner: object


class FileSpec(NamedTuple):
    path: str


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token):
        if not self.text.startswith(token, self.pos):
            raise SpecSyntaxError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def integer(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError("expected an integer", start)
        if self.pos - start > MAX_DIGITS:
            raise SpecSyntaxError(f"integer of {self.pos - start} digits is too long", start)
        return int(self.text[start:self.pos]), start

    def order(self):
        """An integer that must be >= 1, such as the order of a Fourier factor."""
        value, start = self.integer()
        if value < 1:
            raise SpecSyntaxError(f"order must be >= 1, got {value}", start)
        return value

    def path(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",);":
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError("expected a file path", start)
        return self.text[start:self.pos]


def _parse_qsrc(cur):
    if cur.text.startswith("seed=", cur.pos):
        cur.expect("seed=")
        seed, off = cur.integer()
        if seed >= SEED_LIMIT:
            raise SpecSyntaxError("seed does not fit in 64 bits", off)
        return ("seed", seed)
    if cur.text.startswith("file=", cur.pos):
        cur.expect("file=")
        return ("file", cur.path())
    raise SpecSyntaxError("expected 'seed=' or 'file='", cur.pos)


def _parse_spec(cur):
    text, pos = cur.text, cur.pos
    if text.startswith("fouriergroup:", pos):
        cur.expect("fouriergroup:")
        orders = [cur.order()]
        while cur.peek() == "x":
            cur.expect("x")
            orders.append(cur.order())
        return FourierGroupSpec(tuple(orders))
    if text.startswith("fourier:", pos):
        cur.expect("fourier:")
        return FourierSpec(cur.order())
    if text.startswith("tensor(", pos):
        cur.expect("tensor(")
        left = _parse_spec(cur)
        cur.expect(",")
        right = _parse_spec(cur)
        cur.expect(")")
        return TensorSpec(left, right)
    if text.startswith("dita(", pos):
        cur.expect("dita(")
        m = cur.order()
        cur.expect(",")
        n = cur.order()
        cur.expect(";")
        qsource = _parse_qsrc(cur)
        cur.expect(")")
        return DitaSpec(m, n, qsource)
    for op in ("conj", "transpose", "adjoint"):
        if text.startswith(op + "(", pos):
            cur.expect(op + "(")
            inner = _parse_spec(cur)
            cur.expect(")")
            return UnarySpec(op, inner)
    if text.startswith("file=", pos):
        cur.expect("file=")
        return FileSpec(cur.path())
    name = text[pos:].split("(")[0].split(":")[0].split("=")[0]
    if name and name not in _CONSTRUCTORS:
        raise SpecSyntaxError(f"unknown constructor {name!r}", pos)
    raise SpecSyntaxError("expected a matrix spec", pos)


def parse_matrix_spec(text):
    """Parse a spec string into its tree form.  Deterministic and total on
    valid inputs; raises SpecSyntaxError with a character offset otherwise."""
    cur = _Cursor(text)
    spec = _parse_spec(cur)
    if cur.pos != len(text):
        raise SpecSyntaxError("trailing characters after spec", cur.pos)
    return spec


def unparse(spec):
    """Canonical spec string for a parse tree."""
    if isinstance(spec, FourierSpec):
        return f"fourier:{spec.n}"
    if isinstance(spec, FourierGroupSpec):
        return "fouriergroup:" + "x".join(str(n) for n in spec.orders)
    if isinstance(spec, TensorSpec):
        return f"tensor({unparse(spec.left)},{unparse(spec.right)})"
    if isinstance(spec, DitaSpec):
        kind, value = spec.qsource
        return f"dita({spec.m},{spec.n};{kind}={value})"
    if isinstance(spec, UnarySpec):
        return f"{spec.op}({unparse(spec.inner)})"
    if isinstance(spec, FileSpec):
        return f"file={spec.path}"
    raise TypeError(f"not a matrix spec: {spec!r}")


def spec_size(spec):
    """N of the N x N matrix that a parse tree describes, without building
    it, or None if the tree holds a `file=` matrix, whose size is known only
    once it is loaded.  A phase file does not count: dita(M, N; ...) has
    size MN."""
    if isinstance(spec, FourierSpec):
        return spec.n
    if isinstance(spec, FourierGroupSpec):
        return prod(spec.orders)
    if isinstance(spec, TensorSpec):
        left, right = spec_size(spec.left), spec_size(spec.right)
        return None if left is None or right is None else left * right
    if isinstance(spec, DitaSpec):
        return spec.m * spec.n
    if isinstance(spec, UnarySpec):
        return spec_size(spec.inner)
    if isinstance(spec, FileSpec):
        return None
    raise TypeError(f"not a matrix spec: {spec!r}")


def resolve_phase_matrix(m, n, qsource):
    from . import matrices

    kind, value = qsource
    if kind == "seed":
        return matrices.seeded_phase_matrix(m, n, value)
    q = matrices.load_phase_matrix(value)
    if q.shape != (m, n):
        raise ValueError(f"phase matrix file has shape {q.shape}, expected {(m, n)}")
    return q


def build_matrix(spec, check=True):
    """Construct the HadamardMatrix described by a parse tree (or spec string).

    With check=False, file-sourced matrices skip Hadamard validation so that
    a validation report can still be produced for bad inputs.
    """
    from . import matrices

    if isinstance(spec, str):
        spec = parse_matrix_spec(spec)
    if isinstance(spec, FourierSpec):
        return matrices.fourier(spec.n)
    if isinstance(spec, FourierGroupSpec):
        return matrices.fourier_group(spec.orders)
    if isinstance(spec, TensorSpec):
        return matrices.tensor(build_matrix(spec.left, check), build_matrix(spec.right, check))
    if isinstance(spec, DitaSpec):
        q = resolve_phase_matrix(spec.m, spec.n, spec.qsource)
        return matrices.dita(spec.m, spec.n, q, provenance=unparse(spec))
    if isinstance(spec, UnarySpec):
        inner = build_matrix(spec.inner, check)
        op = {"conj": matrices.conjugate,
              "transpose": matrices.transpose,
              "adjoint": matrices.adjoint}[spec.op]
        return op(inner)
    if isinstance(spec, FileSpec):
        return matrices.load_matrix(spec.path, check=check)
    raise TypeError(f"not a matrix spec: {spec!r}")
