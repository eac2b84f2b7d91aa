"""Seeded documents for the benchmark workloads, with their known answers.

Nothing here imports comodcheck.  Every known answer follows from the
mathematics stated beside its generator, never from running the program:

- over a group-like base every comodule is injective and the coalgebra is
  cosemisimple, and the graded oracle's dimension formulas apply
  (cotensor and hom dimensions are sums of componentwise products, forall
  and Sigma along a label map sum over fibers);
- a regular comodule C, and every direct sum of copies of it, is
  injective over any field;
- the one-dimensional comodule over the dual numbers N is not injective;
- over Q the sqrt-2 coalgebra K is cosemisimple (its dual algebra is the
  field Q(sqrt 2)) and N is not (its dual algebra has a nilpotent);
- over F_p, cosemisimplicity of a raw coalgebra is outside what the
  program decides, so ``cosemisimple K`` over F_7 is ``unsupported``.

A workload is a list of document slots, and a workload seed picks some
variants of each slot.  Every variant is generated from its own index, so
the set of documents any seed can produce is finite (``pool``) and the
golden store holds a payload for each of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

POOL = 16
WORKLOADS = ("corpus", "forall", "coherence", "raw")


class Doc:
    """One document run as ``comodcheck check <file> --json --seed s``."""

    __slots__ = ("key", "text", "runner_seed", "answers")

    def __init__(self, key, text, runner_seed, answers):
        self.key = key                  # golden-store key, unique per input
        self.text = text
        self.runner_seed = runner_seed
        self.answers = answers          # one dict per check, in order

    @property
    def expected_rc(self) -> int:
        return 0 if all(a["verdict"] == "pass" for a in self.answers) else 1

    @property
    def filename(self) -> str:
        """Documents that differ only in the runner seed share a file."""
        return self.key.split("@")[0].replace("/", "_") + ".cd"


def answer(check, refs, value=None, verdict="pass", dims=None) -> dict:
    out = {"check": check, "refs": list(refs), "verdict": verdict,
           "value": value}
    if dims is not None:
        out["dims"] = dims
    return out


def _rng(*tags) -> random.Random:
    return random.Random(":".join(map(str, tags)))


def _fmt(x) -> str:
    return str(Fraction(x))


def _entries(data) -> str:
    return ", ".join(_fmt(x) for x in data)


# -- corpus ------------------------------------------------------------------

def _corpus_answers():
    a = answer
    return {
        "01_axioms.cd": [a("axioms", [n]) for n in ("C", "S", "P", "V")],
        "02_cosemisimple.cd": [a("cosemisimple", ["C"], True),
                               a("cosemisimple", ["K"], True),
                               a("cosemisimple", ["N"], False)],
        "03_injective.cd": [
            a("injective", ["V"], True, dims={"dim": 3, "cofree": 6}),
            a("injective", ["R"], True, dims={"dim": 2, "cofree": 4}),
            a("injective", ["S"], False, dims={"dim": 1, "cofree": 2})],
        "04_cotensor.cd": [
            a("cotensor", ["V", "W"],
              dims={"left": 3, "right": 4, "cotensor": 5}),
            a("cotensor", ["X", "Y"],
              dims={"left": 2, "right": 3, "cotensor": 6})],
        "05_hom.cd": [a("hom", ["V", "W"],
                        dims={"hom": 6, "left": 3, "right": 4}),
                      a("hom", ["V", "V"],
                        dims={"hom": 5, "left": 3, "right": 3})],
        "06_adjunction.cd": [a("adjunction", ["f", "V", "W"]),
                             a("adjunction", ["f"])],
        "07_beck.cd": [a("beck", ["beta", "alpha", "V"]),
                       a("beck", ["beta", "alpha"])],
        "08_forall_beck.cd": [
            a("forall-beck", ["beta", "alpha", "V"],
              dims={"forall_then_pull": 4, "pull_then_forall": 4}),
            a("forall-beck", ["beta", "alpha"])],
        "09_frobenius.cd": [a("frobenius", ["phi", "V", "W"]),
                            a("frobenius", ["phi"])],
        "10_ssmc.cd": [a("ssmc", ["phi", "V", "W"]), a("ssmc", ["phi"])],
        "11_lnl.cd": [a("lnl", ["f", "phi"])],
        "12_hyperdoctrine.cd": [a("hyperdoctrine", ["C", "1"])],
        "13_prime_field.cd": [
            a("axioms", ["C"]),
            a("cotensor", ["V", "W"],
              dims={"left": 3, "right": 2, "cotensor": 3}),
            a("injective", ["V"], True, dims={"dim": 3, "cofree": 6}),
            a("adjunction", ["f"])],
    }


def _corpus_doc(name: str, text: str, answers, runner_seed: int) -> Doc:
    return Doc(f"corpus/{name[:-3]}@{runner_seed}", text, runner_seed,
               answers)


# -- forall ------------------------------------------------------------------

def _forall_beck_doc(v: int) -> Doc:
    """forall-beck over a seeded cospan D1 -> C <- D2 of label maps.

    (forall_beta V)_y sums V_x over the fiber of y, and pulling back along
    alpha reads it at alpha(q); both sides have that total dimension.
    """
    rng = _rng("forall-beck", v)
    c, d1, d2 = ("a", "b"), ("x", "y", "z"), ("p", "q")
    beta = {x: rng.choice(c) for x in d1}
    alpha = {p: rng.choice(c) for p in d2}
    dims = {x: rng.randint(0, 2) for x in d1}
    total = sum(dims[x] for p in d2 for x in d1 if beta[x] == alpha[p])
    text = "\n".join([
        "field Q",
        "coalg C = grouplike {a, b}",
        "coalg D1 = grouplike {x, y, z}",
        "coalg D2 = grouplike {p, q}",
        "morph beta : D1 -> C {"
        + ", ".join(f"{x}->{beta[x]}" for x in d1) + "}",
        "morph alpha : D2 -> C {"
        + ", ".join(f"{p}->{alpha[p]}" for p in d2) + "}",
        "comod V over D1 {graded {"
        + ", ".join(f"{x}: {dims[x]}" for x in d1) + "}}",
        "check forall-beck beta alpha V",
        "check forall-beck beta alpha",
    ]) + "\n"
    return Doc(f"forall/forall_beck_v{v}@{v}", text, v, [
        answer("forall-beck", ["beta", "alpha", "V"],
               dims={"forall_then_pull": total, "pull_then_forall": total}),
        answer("forall-beck", ["beta", "alpha"])])


def _hyperdoctrine_doc(n: int, runner_seed: int) -> Doc:
    text = "field Q\ncoalg C = grouplike {a, b}\n" \
           f"check hyperdoctrine C {n}\n"
    return Doc(f"forall/hyperdoctrine_{n}@{runner_seed}", text, runner_seed,
               [answer("hyperdoctrine", ["C", str(n)])])


# ``hyperdoctrine C 2`` takes 18-25 s depending on the runner seed (seeds
# 0-7 at the seed commit); that spread is wider than any bound, so it runs
# at the CLI's default seed and the workload seed varies the other slots.
HYPERDOCTRINE_2_SEED = 0


# -- generated coactions ------------------------------------------------------

def _reorder(rho, m: int, n: int, order):
    """The coaction in the basis whose i-th vector is the old order[i]-th;
    rho: V -> V (x) C is the flat row-major (m*n) x m matrix with row
    a*n + c for v_a (x) c_c."""
    return [rho[(order[a] * n + c) * m + order[j]]
            for a in range(m) for c in range(n) for j in range(m)]


# -- coherence ---------------------------------------------------------------

# (field, labels, V dims, W dims) for each rung of the cotensor ladder.
COHERENCE_RUNGS = (
    ("Q", "ab", (1, 1), (1, 1)),
    ("Q", "ab", (2, 1), (1, 2)),
    ("Q", "ab", (2, 2), (2, 1)),
    ("Q", "ab", (3, 3), (3, 1)),
    ("Q", "abc", (1, 1, 1), (1, 1, 1)),
    ("Q", "abc", (2, 1, 1), (1, 2, 1)),
    ("Fp 7", "ab", (2, 2), (2, 1)),
)


def _coherence_doc(rung: int, v: int) -> Doc:
    """``check cotensor V W`` on graded comodules.

    Variant ``v`` relabels the grading by the v-th permutation of the
    labels, the same one for both sides; the cotensor over a group-like
    base has dimension sum_x V_x W_x.
    """
    field, labels, vd, wd = COHERENCE_RUNGS[rung]
    perm = list(itertools.permutations(range(len(labels))))[v]
    vd = [vd[i] for i in perm]
    wd = [wd[i] for i in perm]
    lines = [f"field {field}",
             "coalg C = grouplike {" + ", ".join(labels) + "}"]
    for name, dims in (("V", vd), ("W", wd)):
        lines.append(f"comod {name} over C {{graded {{"
                     + ", ".join(f"{x}: {d}" for x, d in zip(labels, dims))
                     + "}}")
    lines.append("check cotensor V W")
    dims = {"left": sum(vd), "right": sum(wd),
            "cotensor": sum(a * b for a, b in zip(vd, wd))}
    return Doc(f"coherence/rung{rung}_v{v}@0", "\n".join(lines) + "\n", 0,
               [answer("cotensor", ["V", "W"], dims=dims)])


# -- raw ---------------------------------------------------------------------

class _Coalg:
    """Structure constants: delta is (n*n) x n row-major, row a*n + b."""

    def __init__(self, n, delta, eps):
        self.n, self.delta, self.eps = n, delta, eps


_K = _Coalg(2, [1, 0, 0, 1, 0, 1, 2, 0], [1, 0])
_N = _Coalg(2, [1, 0, 0, 1, 0, 1, 0, 0], [1, 0])


def _sum(c1: _Coalg, c2: _Coalg) -> _Coalg:
    n1, n = c1.n, c1.n + c2.n
    delta = [0] * (n * n * n)
    for part, off in ((c1, 0), (c2, n1)):
        k = part.n
        for a in range(k):
            for b in range(k):
                for j in range(k):
                    delta[((a + off) * n + b + off) * n + j + off] = \
                        part.delta[(a * k + b) * k + j]
    return _Coalg(n, delta, c1.eps + c2.eps)


def _product(c1: _Coalg, c2: _Coalg) -> _Coalg:
    """Tensor product, basis e_i (x) f_j at i*n2 + j, with
    delta(e_i f_j) = sum (e_a f_c) (x) (e_b f_d)."""
    n1, n2 = c1.n, c2.n
    n = n1 * n2
    delta = [0] * (n * n * n)
    for i in range(n1):
        for j in range(n2):
            for a in range(n1):
                for b in range(n1):
                    x = c1.delta[(a * n1 + b) * n1 + i]
                    if not x:
                        continue
                    for c in range(n2):
                        for d in range(n2):
                            y = c2.delta[(c * n2 + d) * n2 + j]
                            if y:
                                row = (a * n2 + c) * n + b * n2 + d
                                delta[row * n + i * n2 + j] += x * y
    eps = [e1 * e2 for e1 in c1.eps for e2 in c2.eps]
    return _Coalg(n, delta, eps)


def _doubled(rho, m: int, n: int):
    """Coaction of V (+) V from that of V."""
    out = [0] * (2 * m * n * 2 * m)
    for k in (0, 1):
        for a in range(m):
            for c in range(n):
                for j in range(m):
                    out[((a + k * m) * n + c) * 2 * m + j + k * m] = \
                        rho[(a * n + c) * m + j]
    return out


# name -> (DSL definition, structure, cosemisimple over Q)
RAW_BASES = {
    "K": (None, _K, True),
    "N": (None, _N, False),
    "KN": ("sum(K, N)", _sum(_K, _N), False),
    "KK": ("product(K, K)", _product(_K, _K), True),
}
RAW_FIELDS = ("Q", "Fp 7")


def _raw_doc(base: str, field: str, v: int) -> Doc:
    """Injectivity (and, where known, cosemisimplicity) over a raw base.

    R is the regular comodule of the base and D = R (+) R; both are
    injective.  Over N the one-dimensional comodule S (coaction
    v -> v (x) 1) is not.  Variant 0 keeps the standard basis order, and
    variant v > 0 reorders the bases of R and D at random.  The injective
    check also decides the double of its argument, so D is declared only
    over the 2-dimensional bases: over a 4-dimensional one its check would
    solve for a 16-dimensional comodule, which takes over 90 s over Q.
    """
    defn, c, semisimple = RAW_BASES[base]
    rng = _rng("raw", base, field, v)
    lines = [f"field {field}",
             f"coalg K = raw dim=2 delta=[{_entries(_K.delta)}] eps=[1, 0]",
             f"coalg N = raw dim=2 delta=[{_entries(_N.delta)}] eps=[1, 0]"]
    if defn:
        lines.append(f"coalg {base} = {defn}")
    n = c.n
    checks, answers = [], []
    if field == "Q":
        checks.append(f"check cosemisimple {base}")
        answers.append(answer("cosemisimple", [base], semisimple,
                              dims={"dim": n}))
    elif base == "K":
        checks.append("check cosemisimple K")
        answers.append(answer("cosemisimple", ["K"], verdict="unsupported"))
    comods = [("R", n, c.delta)]
    if n == 2:
        comods.append(("D", 2 * n, _doubled(c.delta, n, n)))
    for name, m, rho in comods:
        order = list(range(m))
        if v:
            rng.shuffle(order)
        lines.append(f"comod {name} over {base} {{dim {m} "
                     f"rho=[{_entries(_reorder(rho, m, n, order))}]}}")
        checks.append(f"check injective {name}")
        answers.append(answer("injective", [name], True,
                              dims={"dim": m, "cofree": m * n}))
    if base == "N":
        lines.append("comod S over N {dim 1 rho=[1, 0]}")
        checks.append("check injective S")
        answers.append(answer("injective", ["S"], False,
                              dims={"dim": 1, "cofree": 2}))
    lines += checks
    tag = "Q" if field == "Q" else "F7"
    return Doc(f"raw/{base}_{tag}_v{v}@0", "\n".join(lines) + "\n", 0,
               answers)


# -- workloads ----------------------------------------------------------------

def _slots(workload: str, corpus_dir: Path):
    """(variant count, variants per set, document factory) for each slot.

    Where a slot's variants differ in cost by more than a bound allows,
    every set holds all of them."""
    if workload == "corpus":
        # A set of 8 of the 16 runner seeds cost up to 20% more or less
        # than another at the seed commit.
        return [(POOL, POOL,
                 functools.partial(_corpus_doc, name,
                                   (corpus_dir / name).read_text("utf-8"),
                                   answers))
                for name, answers in sorted(_corpus_answers().items())]
    if workload == "forall":
        # The median document is a ``hyperdoctrine C 1``, whose cost
        # depends on the runner seed, so every set runs seeds 0-7.  With
        # ten documents, p90 falls on ``hyperdoctrine C 2``.
        return [(8, 8, functools.partial(_hyperdoctrine_doc, 1)),
                (1, 1, lambda v: _hyperdoctrine_doc(2, HYPERDOCTRINE_2_SEED)),
                (POOL, 1, _forall_beck_doc)]
    if workload == "coherence":
        # The label order moves the cost of a 2-label rung (1.8 s for
        # (3,3)/(3,1), 2.3 s for (3,3)/(1,3)), so every set has both
        # orders of those, and 3 of the 6 orders of a 3-label rung.
        return [(math.factorial(len(labels)), min(3, len(labels)),
                 functools.partial(_coherence_doc, r))
                for r, (_, labels, _, _) in enumerate(COHERENCE_RUNGS)]
    # The basis order moves the cost of a 2-dimensional base over Q by up
    # to 75%, so every set holds all 16 orders.  The 20 faster documents
    # over F_7 put the median in the middle of the 16 N-over-Q ones.  Over
    # the 4-dimensional bases the order moves the cost over Q by up to 80%
    # (1.4-2.6 s for KK), so those keep the standard order.
    picks = {"Q": POOL, "Fp 7": 10}
    return [(POOL, picks[field], functools.partial(_raw_doc, base, field))
            if RAW_BASES[base][1].n == 2 else
            (1, 1, functools.partial(_raw_doc, base, field))
            for base in RAW_BASES for field in RAW_FIELDS]


def generate(workload: str, seed: int, corpus_dir: Path) -> list[Doc]:
    """The workload's document set for one seed."""
    rng = _rng(workload, seed)
    return [make(v) for count, picks, make in _slots(workload, corpus_dir)
            for v in sorted(rng.sample(range(count), picks))]


def pool(workload: str, corpus_dir: Path) -> list[Doc]:
    """Every document any seed can produce, for the golden store."""
    return [make(v) for count, _, make in _slots(workload, corpus_dir)
            for v in range(count)]
