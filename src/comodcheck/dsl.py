"""Text definition language for coalgebras, comodules and check directives.

The grammar is line oriented; brackets and braces may spill across
physical lines (they are joined before parsing).  ``#`` starts a comment.

    field Q                      | field Fp 7
    coalg C = grouplike {a, b}
    coalg S = sum(C1, C2)
    coalg P = product(C1, C2)
    coalg R = raw dim=2 delta=[...] eps=[...]
    morph f : C -> D { a->x, b->y }
    morph g : C -> D { matrix [...] }
    comod V over C { graded {a: 1, b: 2} }
    comod W over C { dim 2 rho=[...] }
    check <kind> <args...>

``CHECK_ARGS`` lists the arguments of each check kind; a check directive
is validated against it (argument count, exponent literals, what each name
refers to) when it is parsed.  Matrix literals are comma separated
rationals in row-major order (column i of a structure matrix is the image
of the i-th basis vector).  Parse errors carry line and column; invariant
violations discovered while constructing a definition are reported at the
definition's line with the violated axiom named.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction

from .coalg import (Coalgebra, CoalgebraMorphism, direct_sum,
                    grouplike_coalgebra, grouplike_morphism, product)
from .comod import Comodule, graded_comodule
from .errors import ComodcheckError
from .exactlin import ShapeError
from .fields import GF, QQ, Field, FieldError

__all__ = ["ParseError", "Document", "parse", "print_document"]

# The arguments of each check kind, in order: what an argument names
# ("definition" for any named object) or "exponent" for a nonnegative
# integer literal.  A trailing "?" marks an argument that may be omitted,
# in which case the check generates a seeded instance.
CHECK_ARGS = {
    "axioms": ("definition",),
    "cosemisimple": ("coalgebra",),
    "injective": ("comodule",),
    "cotensor": ("comodule", "comodule"),
    "hom": ("comodule", "comodule"),
    "adjunction": ("morphism", "comodule?", "comodule?"),
    "beck": ("morphism", "morphism", "comodule?"),
    "forall-beck": ("morphism", "morphism", "comodule?"),
    "frobenius": ("morphism", "comodule?", "comodule?"),
    "ssmc": ("morphism", "comodule?", "comodule?"),
    "lnl": ("morphism", "morphism"),
    "hyperdoctrine": ("coalgebra", "exponent"),
}
CHECK_KINDS = tuple(CHECK_ARGS)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_FIELD = re.compile(rf"^field\s+(Q|Fp\s+\d+)\s*$")
_RE_COALG = re.compile(rf"^coalg\s+({_NAME})\s*=\s*(.+)$")
_RE_MORPH = re.compile(
    rf"^morph\s+({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})\s*\{{(.*)\}}\s*$")
_RE_COMOD = re.compile(
    rf"^comod\s+({_NAME})\s+over\s+({_NAME})\s*\{{(.*)\}}\s*$")
_RE_CHECK = re.compile(r"^check\s+([a-z-]+)((?:\s+[A-Za-z0-9_-]+)*)\s*$")
_RE_GROUPLIKE = re.compile(rf"^grouplike\s*\{{\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\}}\s*$")
_RE_PAIRCALL = re.compile(rf"^(sum|product)\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*$")
_RE_RAW = re.compile(
    r"^raw\s+dim\s*=\s*(\d+)\s+delta\s*=\s*\[(.*?)\]\s+eps\s*=\s*\[(.*?)\]\s*$")
_RE_GRADED = re.compile(rf"^graded\s*\{{\s*(.*?)\s*\}}\s*$")
_RE_RHO = re.compile(r"^dim\s+(\d+)\s+rho\s*=\s*\[(.*?)\]\s*$")
_RE_MATRIX_BODY = re.compile(r"^\s*matrix\s*\[(.*?)\]\s*$")


class ParseError(ComodcheckError):
    """Syntax or construction error with source position."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Document:
    """A parsed document: field, named definitions, check directives.

    Equality compares the syntactic content (the printer's round trip is
    the identity on documents).
    """

    def __init__(self, field_spec, field: Field):
        self.field_spec = field_spec
        self.field = field
        self.defs = []          # syntactic forms, in order
        self.checks = []        # (kind, args, line)
        self.coalgebras: dict[str, Coalgebra] = {}
        self.morphisms: dict[str, CoalgebraMorphism] = {}
        self.comodules: dict[str, Comodule] = {}

    def __eq__(self, other):
        return (isinstance(other, Document)
                and other.field_spec == self.field_spec
                and other.defs == self.defs
                and [(k, a) for k, a, _ in other.checks]
                == [(k, a) for k, a, _ in self.checks])

    def lookup(self, name: str, line: int = 0):
        for table in (self.coalgebras, self.morphisms, self.comodules):
            if name in table:
                return table[name]
        raise ParseError(f"unresolved name {name!r}", line)


def _logical_lines(text: str):
    """Join physical lines until brackets balance; yields (line_no, text)."""
    buf = []
    start = None
    depth = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip() and not buf:
            continue
        if not buf:
            start = no
        buf.append(line)
        depth += sum(line.count(c) for c in "([{")
        depth -= sum(line.count(c) for c in ")]}")
        if depth < 0:
            raise ParseError("unbalanced closing bracket", no,
                             col=len(line))
        if depth == 0:
            joined = " ".join(part.strip() for part in buf).strip()
            buf = []
            if joined:
                yield start, joined
    if buf:
        raise ParseError("unclosed bracket at end of file", start)


def _entries(body: str, field: Field, line: int):
    """The scalar literals of a matrix body, each parsed once: their
    values in ``field`` and their canonical printed forms.  A literal of
    ASCII digits with an optional minus sign is read by ``int``, which
    gives the same value and printed form as ``Fraction`` at a fraction
    of the cost."""
    if not body.strip():
        return [], ()
    values, strings = [], []
    for piece in body.split(","):
        piece = piece.strip()
        digits = piece[1:] if piece[:1] == "-" else piece
        try:
            q = int(piece) if digits.isascii() and digits.isdigit() \
                else Fraction(piece)
            values.append(field.of(q))
        except (ValueError, ZeroDivisionError, FieldError):
            raise ParseError(f"bad scalar literal {piece!r}", line) from None
        strings.append(str(q))
    return values, tuple(strings)


def _literal_columns(rows: int, cols: int, values):
    """The {row: value} columns of a rows x cols matrix literal, whose
    values are listed in row-major order."""
    if len(values) != rows * cols:
        raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} "
                         f"entries, got {len(values)}")
    return [{r: x for r in range(rows) if (x := values[r * cols + j])}
            for j in range(cols)]


def parse(text: str) -> Document:
    """Parse a document; raises ParseError with line/column on failure."""
    doc = None
    names = set()
    for line_no, line in _logical_lines(text):
        head = line.split(None, 1)[0]
        if head == "field":
            m = _RE_FIELD.match(line)
            if not m:
                raise ParseError("bad field declaration", line_no)
            if doc is not None:
                raise ParseError("duplicate field declaration", line_no)
            spec = re.sub(r"\s+", " ", m.group(1))
            with _at_line(line_no):
                field = QQ if spec == "Q" else GF(int(spec.split()[1]))
            doc = Document(spec, field)
            continue
        if doc is None:
            raise ParseError("the document must start with a field "
                             "declaration", line_no)
        if head == "coalg":
            _parse_coalg(doc, line, line_no, names)
        elif head == "morph":
            _parse_morph(doc, line, line_no, names)
        elif head == "comod":
            _parse_comod(doc, line, line_no, names)
        elif head == "check":
            m = _RE_CHECK.match(line)
            if not m:
                raise ParseError("bad check directive", line_no)
            kind = m.group(1)
            if kind not in CHECK_KINDS:
                raise ParseError(f"unknown check kind {kind!r}", line_no,
                                 col=line.index(kind) + 1)
            doc.checks.append((kind, _check_args(doc, m, line_no), line_no))
        else:
            raise ParseError(f"unknown statement {head!r}", line_no)
    if doc is None:
        raise ParseError("empty document (missing field declaration)", 1)
    return doc


def _usage(kind: str) -> str:
    parts = [f"[<{role[:-1]}>]" if role.endswith("?") else f"<{role}>"
             for role in CHECK_ARGS[kind]]
    return " ".join(["check", kind, *parts])


def _defined_as(doc: Document, name: str):
    for role, table in (("coalgebra", doc.coalgebras),
                        ("morphism", doc.morphisms),
                        ("comodule", doc.comodules)):
        if name in table:
            return role
    return None


def _check_args(doc: Document, m, line_no: int) -> tuple:
    """The arguments of a matched check directive, validated against
    ``CHECK_ARGS``: their count, the exponent literals and the kind of
    definition each name refers to.  Errors point at the argument."""
    kind = m.group(1)
    roles = CHECK_ARGS[kind]
    tokens = [(t.group(), m.start(2) + t.start() + 1)
              for t in re.finditer(r"\S+", m.group(2))]
    usage = _usage(kind)
    least = sum(not role.endswith("?") for role in roles)
    if not least <= len(tokens) <= len(roles):
        want = str(least) if least == len(roles) \
            else f"{least} to {len(roles)}"
        noun = "argument" if want == "1" else "arguments"
        col = tokens[len(roles)][1] if len(tokens) > len(roles) \
            else m.start(1) + 1
        raise ParseError(f"{usage}: expected {want} {noun}, "
                         f"got {len(tokens)}", line_no, col=col)
    for pos, ((arg, col), role) in enumerate(zip(tokens, roles), start=1):
        role = role.rstrip("?")
        if role == "exponent":
            if not arg.isdigit():
                raise ParseError(f"{usage}: argument {pos} must be a "
                                 f"nonnegative integer, got {arg!r}",
                                 line_no, col=col)
            continue
        defined = _defined_as(doc, arg)
        if defined is None and re.fullmatch(_NAME, arg):
            raise ParseError(f"unresolved name {arg!r}", line_no, col=col)
        if defined is None or role not in ("definition", defined):
            got = f"{arg!r}" if defined is None else f"{defined} {arg!r}"
            raise ParseError(f"{usage}: argument {pos} must name a {role}, "
                             f"got {got}", line_no, col=col)
    return tuple(arg for arg, _ in tokens)


def _register(doc, names, name, line_no):
    if name in names:
        raise ParseError(f"duplicate name {name!r}", line_no)
    names.add(name)


@contextmanager
def _at_line(line_no):
    """Report a construction error raised inside the block as a ParseError
    at ``line_no``; a ParseError passes through unchanged."""
    try:
        yield
    except ParseError:
        raise
    except (ComodcheckError, ValueError) as exc:
        raise ParseError(str(exc), line_no) from exc


def _parse_coalg(doc, line, line_no, names):
    m = _RE_COALG.match(line)
    if not m:
        raise ParseError("bad coalgebra definition", line_no)
    name, body = m.group(1), m.group(2).strip()
    _register(doc, names, name, line_no)
    with _at_line(line_no):
        if (g := _RE_GROUPLIKE.match(body)):
            labels = tuple(x.strip() for x in g.group(1).split(","))
            doc.coalgebras[name] = grouplike_coalgebra(doc.field, labels)
            doc.defs.append(("coalg", name, ("grouplike", labels)))
        elif (g := _RE_PAIRCALL.match(body)):
            kind, n1, n2 = g.group(1), g.group(2), g.group(3)
            c1 = doc.coalgebras.get(n1)
            c2 = doc.coalgebras.get(n2)
            if c1 is None or c2 is None:
                raise ParseError("unresolved coalgebra name", line_no)
            doc.coalgebras[name] = direct_sum(c1, c2) if kind == "sum" \
                else product(c1, c2)[0]
            doc.defs.append(("coalg", name, (kind, n1, n2)))
        elif (g := _RE_RAW.match(body)):
            dim = int(g.group(1))
            delta, delta_text = _entries(g.group(2), doc.field, line_no)
            eps, eps_text = _entries(g.group(3), doc.field, line_no)
            doc.coalgebras[name] = Coalgebra(
                doc.field, dim,
                _literal_columns(dim * dim, dim, delta),
                _literal_columns(1, dim, eps))
            doc.defs.append(("coalg", name,
                             ("raw", dim, delta_text, eps_text)))
        else:
            raise ParseError("bad coalgebra body", line_no,
                             col=line.index("=") + 2)


def _parse_morph(doc, line, line_no, names):
    m = _RE_MORPH.match(line)
    if not m:
        raise ParseError("bad morphism definition", line_no)
    name, src_name, tgt_name, body = m.groups()
    _register(doc, names, name, line_no)
    src = doc.coalgebras.get(src_name)
    tgt = doc.coalgebras.get(tgt_name)
    if src is None or tgt is None:
        raise ParseError("unresolved coalgebra name", line_no)
    body = body.strip()
    with _at_line(line_no):
        if (g := _RE_MATRIX_BODY.match(body)):
            entries, text = _entries(g.group(1), doc.field, line_no)
            doc.morphisms[name] = CoalgebraMorphism(
                src, tgt, _literal_columns(tgt.dim, src.dim, entries))
            doc.defs.append(("morph", name, src_name, tgt_name,
                             ("matrix", text)))
        else:
            pairs = []
            for piece in body.split(","):
                piece = piece.strip()
                pm = re.match(rf"^({_NAME})\s*->\s*({_NAME})$", piece)
                if not pm:
                    raise ParseError(f"bad label mapping {piece!r}",
                                     line_no)
                pairs.append((pm.group(1), pm.group(2)))
            doc.morphisms[name] = grouplike_morphism(src, tgt, dict(pairs))
            doc.defs.append(("morph", name, src_name, tgt_name,
                             ("labelmap", tuple(pairs))))


def _parse_comod(doc, line, line_no, names):
    m = _RE_COMOD.match(line)
    if not m:
        raise ParseError("bad comodule definition", line_no)
    name, base_name, body = m.groups()
    _register(doc, names, name, line_no)
    base = doc.coalgebras.get(base_name)
    if base is None:
        raise ParseError(f"unresolved coalgebra name {base_name!r}", line_no)
    body = body.strip()
    with _at_line(line_no):
        if (g := _RE_GRADED.match(body)):
            pairs = []
            if g.group(1).strip():
                for piece in g.group(1).split(","):
                    pm = re.match(rf"^\s*({_NAME})\s*:\s*(\d+)\s*$", piece)
                    if not pm:
                        raise ParseError(f"bad graded entry {piece!r}",
                                         line_no)
                    pairs.append((pm.group(1), int(pm.group(2))))
            if base.labels is None or set(x for x, _ in pairs) \
                    != set(base.labels):
                raise ParseError("graded dims must cover the base labels",
                                 line_no)
            by_label = dict(pairs)
            doc.comodules[name] = graded_comodule(
                base, [by_label[x] for x in base.labels])
            doc.defs.append(("comod", name, base_name,
                             ("graded", tuple(sorted(pairs)))))
        elif (g := _RE_RHO.match(body)):
            dim = int(g.group(1))
            entries, text = _entries(g.group(2), doc.field, line_no)
            doc.comodules[name] = Comodule(base, dim, _literal_columns(
                dim * base.dim, dim, entries))
            doc.defs.append(("comod", name, base_name, ("raw", dim, text)))
        else:
            raise ParseError("bad comodule body", line_no)


def print_document(doc: Document) -> str:
    """Canonical text form; parse(print_document(d)) == d."""
    out = [f"field {doc.field_spec}"]
    for d in doc.defs:
        if d[0] == "coalg":
            _, name, body = d
            if body[0] == "grouplike":
                out.append(f"coalg {name} = grouplike "
                           "{" + ", ".join(body[1]) + "}")
            elif body[0] in ("sum", "product"):
                out.append(f"coalg {name} = {body[0]}({body[1]}, {body[2]})")
            else:
                _, dim, delta, eps = body
                out.append(f"coalg {name} = raw dim={dim} "
                           f"delta=[{', '.join(delta)}] "
                           f"eps=[{', '.join(eps)}]")
        elif d[0] == "morph":
            _, name, src, tgt, body = d
            if body[0] == "labelmap":
                inner = ", ".join(f"{a}->{b}" for a, b in body[1])
            else:
                inner = "matrix [" + ", ".join(body[1]) + "]"
            out.append(f"morph {name} : {src} -> {tgt} {{{inner}}}")
        else:
            _, name, base, body = d
            if body[0] == "graded":
                inner = ", ".join(f"{x}: {k}" for x, k in body[1])
                out.append(f"comod {name} over {base} {{graded {{{inner}}}}}")
            else:
                _, dim, entries = body
                out.append(f"comod {name} over {base} "
                           f"{{dim {dim} rho=[{', '.join(entries)}]}}")
    for kind, args, _ in doc.checks:
        out.append("check " + " ".join([kind, *args]).rstrip())
    return "\n".join(out) + "\n"
