"""Generated fuzz programs as plain data.

A :class:`Genome` is a tuple of :class:`Gene` statements plus the
invocation argument of the exported ``run (param i32) (result i32)``.
The gene kinds cover loops, branches, array traffic, trap-prone
arithmetic, out-of-bounds accesses and a bulk ``memory.fill`` (a
multi-page ranged access through one bounds check: exactly the shape
whose interior-page touch accounting has regressed before).

Genomes are deliberately total: :func:`build_genome_module` normalises
every integer field into its legal range at emission time, so *any*
gene tuple builds into an encodable, validator-clean module.  The
hypothesis suites rely on that: they draw arbitrary genes and shrink
on them (tests/test_differential_fuzz.py).

Plain data: frozen dataclasses with a JSON round trip
(:func:`genome_to_json` / :func:`genome_from_json`), which is how the
regression corpus in tests/fuzz_corpus/ stores its cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.wasm.dsl import DslModule, Select

#: Statement kinds.
GENE_KINDS = (
    "loop", "if", "nested", "while", "store", "oob", "div", "trunc", "fill",
)

_ARRAY_LEN = 16

#: memory.fill placement, relative to the DSL data base.  Destinations
#: land in [0, FILL_SPAN) and lengths in [1, FILL_SPAN]; with one extra
#: 64 KiB wasm page over the data page every fill is in bounds, while
#: lengths up to 16 KiB span as many as five 4 KiB OS pages — enough to
#: have interior pages that first/last-only touch accounting would drop.
FILL_SPAN = 4 * 4096


@dataclass(frozen=True)
class Gene:
    """One statement; field meaning depends on ``kind`` (see emission)."""

    kind: str
    a: int = 0  # additive constant
    b: int = 1  # divisor/step constant (const_b)
    c: int = 0  # kind-specific: bound / index / flag / fill dest
    d: int = 0  # kind-specific: inner bound / direction / fill length


@dataclass(frozen=True)
class Genome:
    """A whole case: statements plus the exported function's argument."""

    genes: Tuple[Gene, ...]
    arg: int


# ----------------------------------------------------------------------
# Seeded generation
# ----------------------------------------------------------------------
def _random_gene(rng: random.Random) -> Gene:
    kind = rng.choice(GENE_KINDS)
    a = rng.randint(0, 1000)
    b = rng.randint(1, 7)
    c = d = 0
    if kind == "loop":
        c = rng.randint(1, _ARRAY_LEN)
    elif kind == "if":
        c = rng.randint(0, 1)
    elif kind == "nested":
        c = rng.randint(1, 5)
        d = rng.randint(1, 5)
    elif kind == "store":
        c = rng.randint(0, _ARRAY_LEN - 1)
    elif kind == "oob":
        c = rng.randint(10_000_000, 20_000_000)
        d = rng.randint(0, 1)
    elif kind == "div":
        c = rng.randint(0, b - 1)
    elif kind == "fill":
        c = rng.randrange(FILL_SPAN)
        d = rng.randint(1, FILL_SPAN)
    return Gene(kind, a, b, c, d)


def genome_from_seed(seed: int) -> Genome:
    """The deterministic genome of one integer seed (1-5 genes)."""
    rng = random.Random(seed)
    genes = tuple(_random_gene(rng) for _ in range(rng.randint(1, 5)))
    return Genome(genes, rng.randrange(0, 2**31))


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------
def genome_to_json(genome: Genome) -> dict:
    return {
        "arg": genome.arg,
        "genes": [[g.kind, g.a, g.b, g.c, g.d] for g in genome.genes],
    }


def genome_from_json(raw: dict) -> Genome:
    genes = tuple(
        Gene(str(kind), int(a), int(b), int(c), int(d))
        for kind, a, b, c, d in raw["genes"]
    )
    return Genome(genes, int(raw["arg"]))


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
def _bounded(value: int, lo: int, hi: int) -> int:
    """Total normalisation of an arbitrary int into [lo, hi]."""
    return lo + abs(int(value)) % (hi - lo + 1)


def fill_range(gene: Gene) -> Tuple[int, int]:
    """(absolute dest, length) a ``fill`` gene writes — the single
    source of truth shared by emission and the page-span oracle."""
    dest = DslModule.DATA_BASE + _bounded(gene.c, 0, FILL_SPAN - 1)
    length = _bounded(gene.d, 1, FILL_SPAN)
    return dest, length


def fill_pages(genome: Genome) -> frozenset:
    """Every 4 KiB OS page index a genome's fill genes must touch."""
    pages = set()
    for gene in genome.genes:
        if gene.kind == "fill":
            dest, length = fill_range(gene)
            pages.update(range(dest >> 12, (dest + length - 1 >> 12) + 1))
    return frozenset(pages)


def build_genome_module(genome: Genome):
    """Compile a genome into a validated-shape wasm Module.

    Every gene field is normalised into range first, so emission is
    total over arbitrary gene tuples; an unknown kind emits a store.
    """
    dm = DslModule("difffuzz")
    arr = dm.array_i32("a", _ARRAY_LEN)
    f = dm.func("run", params=[("seed", "i32")], results=["i32"])
    seed = f.params[0]
    i, j = f.i32("i"), f.i32("j")
    acc = f.i32("acc")

    for gene in genome.genes:
        kind = gene.kind if gene.kind in GENE_KINDS else "store"
        const_a = _bounded(gene.a, 0, 1000)
        const_b = _bounded(gene.b, 1, 7)
        if kind == "loop":
            with f.for_(i, 0, _bounded(gene.c, 1, _ARRAY_LEN)):
                f.store(arr[i], arr[i] + i * const_b + seed)
        elif kind == "if":
            with f.if_((seed & 1).eq(_bounded(gene.c, 0, 1))) as branch:
                f.set(acc, acc + const_a)
                branch.otherwise()
                f.set(acc, acc - const_a)
        elif kind == "nested":
            with f.for_(i, 0, _bounded(gene.c, 1, 5)):
                with f.for_(j, 0, _bounded(gene.d, 1, 5)):
                    with f.if_(((i + j) % const_b).eq(0)):
                        f.store(arr[(i + j) % _ARRAY_LEN],
                                arr[(i + j) % _ARRAY_LEN] ^ const_a)
        elif kind == "while":
            f.set(j, const_b)
            with f.while_(lambda: j < const_a % 50 + 1):
                f.set(j, j * 2 + 1)
            f.set(acc, acc + j)
        elif kind == "store":
            index = _bounded(gene.c, 0, _ARRAY_LEN - 1)
            f.store(arr[index], Select(seed > const_a, acc, i) + const_b)
        elif kind == "oob":
            # Far beyond the data page: traps under the trapping
            # strategies, completes under clamp/none.
            index = _bounded(gene.c, 10_000_000, 20_000_000)
            if _bounded(gene.d, 0, 1):
                f.store(arr[index], acc + const_a)
            else:
                f.set(acc, acc + arr[index])
        elif kind == "div":
            # Traps (integer-divide-by-zero) iff seed % b == c.
            const_c = _bounded(gene.c, 0, const_b - 1)
            f.set(acc, acc + seed // ((seed % const_b) - const_c + 1) % 97)
            with f.if_((seed % const_b).eq(const_c)):
                f.set(acc, acc // (seed % const_b - const_c))
        elif kind == "trunc":
            f.set(acc, (acc.to_f64() * float(const_a + 2) + 0.5).to_i32())
        else:  # fill: bulk memory.fill via the raw builder (no DSL form)
            dest, length = fill_range(gene)
            f.fb.emit("i32.const", dest)
            f.fb.emit("i32.const", const_a & 0xFF)
            f.fb.emit("i32.const", length)
            f.fb.emit("memory.fill")

    with f.for_(i, 0, _ARRAY_LEN):
        f.set(acc, acc * 31 + arr[i])
    f.ret(acc)
    # One page of slack over the data page keeps every fill in bounds.
    # Only fill genomes get it: the page count decides which page a
    # clamped out-of-bounds access lands on.
    has_fill = any(gene.kind == "fill" for gene in genome.genes)
    return dm.build(extra_pages=1 if has_fill else 0)
