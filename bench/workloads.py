"""The three benchmark workloads: corpus, timed operation and result checks.

Each workload is a fixed table of member slots.  A slot names a generator
kind, its arity n and degree d, and for the kinds whose cost depends on
which monomials the sampler drew (``pg``, ``ug``, ``ph``) the support
shape the member must have.  The benchmark seed picks, for every slot,
the first member seed whose member has that shape; only coefficients,
scales and coordinate choices then vary with the seed, so the work per
item, and with it the figures, stay put from seed to seed.

A workload supplies five functions:

- ``seeds(hesnil, seed)``: the member seed of every slot (input selection);
- ``build(hesnil, member_seeds, seed)``: the corpus, one ``Item`` per slot
  (set-up);
- ``run(hesnil, item)``: the timed operation, through public functions;
- ``check(hesnil, item, out)``: properties the mathematics forces on the
  output, checked after the item's timing; returns a problem or None,
  and a small summary of the output;
- ``oracle(hesnil, item)``: an independent route, run once per item after
  all rounds; returns a predicate on the summaries.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Tuple

# -- corpus ----------------------------------------------------------------


@dataclass
class Item:
    label: str
    kind: str
    n: int
    d: int
    member_seed: int
    poly: object
    provenance: dict
    hn: bool
    params: dict = field(default_factory=dict)


# coefficient pool of the benchmark's own non-HN sampler
_POOL = tuple(Fraction(x) for x in ("-2", "-1", "-1/2", "1/2", "1", "3/2", "2"))


def _trial_seed(member_seed: int) -> int:
    # trial seed of trial 0 of a vanishing config whose seed is member_seed
    return member_seed * 1_000_003


def _canonical(support, arity: int) -> Tuple[Tuple[int, ...], ...]:
    """Support up to a permutation of the variables."""
    return min(tuple(sorted(tuple(m[i] for i in perm) for m in support))
               for perm in itertools.permutations(range(arity)))


def shape_of(hesnil, kind: str, provenance: dict):
    """The part of a member's make-up that sets its cost."""
    if kind in ("pg", "ug"):
        arity = provenance["n"] // 2 if kind == "pg" else min(2, provenance["n"] // 2)
        return _canonical(hesnil.parse(provenance["inner"], arity=arity).terms, arity)
    if kind == "ph":
        half = provenance["n"] // 2
        return tuple(tuple(sorted(hesnil.parse(text, arity=half).terms)) for text in provenance["map"])
    return None


def find_member_seeds(hesnil, slots, seed: int, workload: str) -> List[int]:
    """Per slot, the first member seed drawn from ``seed`` with the slot's shape."""
    seeds = []
    for index, slot in enumerate(slots):
        kind, n, d, shape = slot[:4]
        rng = random.Random(f"{workload}:{seed}:{index}")
        for _ in range(10_000):
            ms = rng.randrange(1, 2 ** 31)
            if shape is None:
                break
            _, prov = hesnil.build_member(n, d, kind, {}, _trial_seed(ms), 0)
            if shape_of(hesnil, kind, prov) == shape:
                break
        else:
            raise RuntimeError(f"no member of shape {shape} for slot {index}")
        seeds.append(ms)
    return seeds


def build_hn_items(hesnil, slots, member_seeds) -> List[Item]:
    items = []
    for (kind, n, d, shape, params), ms in zip(slots, member_seeds):
        p, prov = hesnil.build_member(n, d, kind, {}, _trial_seed(ms), 0)
        items.append(Item(f"{kind}(n={n},d={d})", kind, n, d, ms, p, prov, True, dict(params)))
    return items


def sample_non_hn(hesnil, support_rng: random.Random, coeff_rng: random.Random,
                  arity: int, degrees: Tuple[int, ...]):
    """A random polynomial of order >= 2 that is not Hessian-nilpotent.

    One term per entry of ``degrees``, on distinct monomials drawn from
    ``support_rng``, with coefficients drawn from ``coeff_rng``.  A nonzero
    Laplacian already rules out nilpotency (Delta P = tr Hes P).
    """
    support = []
    for deg in degrees:
        while True:
            e = [0] * arity
            for _ in range(deg):
                e[support_rng.randrange(arity)] += 1
            if tuple(e) not in support:
                break
        support.append(tuple(e))
    while True:
        p = hesnil.Poly(arity, {
            mono: hesnil.GaussianRational(coeff_rng.choice(_POOL), coeff_rng.choice(_POOL))
            for mono in support})
        if not hesnil.laplacian(p).is_zero():
            return p


def build_non_hn_items(hesnil, shapes, seed: int, workload: str, params_for) -> List[Item]:
    """Random non-HN members; the seed draws the coefficients.

    Each slot's support comes from a stream of its own that the seed does
    not touch: which monomials occur sets most of the cost, so fixing them
    keeps the work per item the same from seed to seed.
    """
    coeff_rng = random.Random(f"{workload}:non-hn:{seed}")
    items = []
    for index, (arity, degrees) in enumerate(shapes):
        support_rng = random.Random(f"{workload}:non-hn-support:{index}")
        p = sample_non_hn(hesnil, support_rng, coeff_rng, arity, degrees)
        items.append(Item(f"random(n={arity},deg={max(degrees)})", "random", arity,
                          max(degrees), 0, p, {"kind": "random"}, False, params_for(index)))
    return items


# -- vanishing ---------------------------------------------------------------

# (kind, n, d, shape, params): the paper's n=4, d=4 case below its cutoff 12,
# and ph members at n=6, d=3 whose windows do not vanish at m=1.  Real runs of
# the n=4, d=4 case use a high t_order; at t_order 6 forming the flags (the
# powers P^2..P^8 and their iterated Laplacians) takes about 60% of a pg trial
# and the five is_hn calls about 25%, and t_order 5 and 6 keep a round near
# 12 s.  Seven items: with an odd count the median item time is an attempt of
# one item, not the mean of one item's slowest attempt and another's fastest.
VANISHING_SLOTS = [
    ("pg", 4, 4, ((0, 4), (1, 3)), {"t_order": 6}),
    ("pg", 4, 4, ((0, 4), (2, 2)), {"t_order": 5}),
    ("ug", 4, 4, ((0, 4), (2, 2)), {"t_order": 6}),
    ("w", 4, 4, None, {"t_order": 6}),
    ("ph", 6, 3, (((0, 2, 0),), (), ()), {"t_order": 3}),
    ("ph", 6, 3, (((0, 0, 2),), ((0, 0, 2),), ()), {"t_order": 3}),
    ("ph", 6, 3, (((0, 1, 1),), ((0, 0, 2),), ()), {"t_order": 3}),
]


def vanishing_seeds(hesnil, seed: int) -> List[int]:
    return find_member_seeds(hesnil, VANISHING_SLOTS, seed, "vanishing")


def vanishing_build(hesnil, member_seeds, seed: int) -> List[Item]:
    return with_configs(hesnil, build_hn_items(hesnil, VANISHING_SLOTS, member_seeds))


def with_configs(hesnil, items: List[Item]) -> List[Item]:
    """Attach the one-trial vanishing config that rebuilds each member."""
    for item in items:
        item.params["config"] = hesnil.ExperimentConfig.from_dict({
            "n": item.n, "d": item.d, "generator": {"kind": item.kind, "params": {}},
            "trials": 1, "seed": item.member_seed, "t_order": item.params["t_order"]})
    return items


def vanishing_run(hesnil, item: Item):
    report, failures = hesnil.vanishing.run_trial(item.params["config"], 0)
    return report, failures, hesnil.render_report([report], "json")


def vanishing_check(hesnil, item: Item, out):
    report, failures, text = out
    flags = tuple(report.vanishing_flags)
    if failures:
        return f"theorem-level failures: {failures}", flags
    if report.hn_verdict is not True:
        return "hn_verdict is not True", flags
    if len(flags) != item.params["t_order"]:
        return f"{len(flags)} flags for t_order {item.params['t_order']}", flags
    rendered = json.loads(text)
    if len(rendered) != 1 or rendered[0]["vanishing_flags"] != list(flags) \
            or rendered[0]["deg_t"] != report.deg_t:
        return "rendered report disagrees with the report", flags
    nonzero = [m for m, flag in enumerate(flags, start=1) if not flag]
    if report.deg_t != (max(nonzero) if nonzero else 0):
        return f"deg_t {report.deg_t} does not match the flags", flags
    if item.kind in ("pg", "ug", "w"):
        # polynomials in pairwise-orthogonal isotropic linear forms: every
        # power is harmonic, so every window vanishes
        if not all(flags) or report.deg_t != 0:
            return "a harmonic-kind member has a nonvanishing window", flags
    return None, flags


def vanishing_oracle(hesnil, item: Item) -> Callable[[object], bool]:
    if item.kind != "ph":
        return lambda flags: True
    # gradient recurrence: Q_[m+1] = c_m Delta^m P^{m+1} with c_m != 0,
    # and it does not assume Hessian nilpotency
    big_m = item.params["t_order"]
    pair = hesnil.invert_general(item.poly, big_m + 1)
    expected = tuple(pair.q_slot(m + 1).is_zero() for m in range(1, big_m + 1))
    return lambda flags: flags == expected


# -- inversion -----------------------------------------------------------------

INVERSION_T_ORDER = 4
INVERSION_EXP_CAP = 8
_S_VALUES = ((1, 0), (2, 0), (1, 1))

# HN members of all five kinds at n <= 4
INVERSION_HN_SLOTS = [
    ("w", 4, 3, None, {}),
    ("wtilde", 4, 3, None, {}),
    ("ug", 4, 3, ((0, 3), (1, 2)), {}),
    ("pg", 4, 3, ((0, 3), (1, 2)), {}),
    ("pg", 2, 3, None, {}),
    ("ph", 4, 3, None, {}),
    ("ph", 4, 4, None, {}),
]
# random non-HN members of order >= 2: (arity, term degrees)
INVERSION_NON_HN = [(2, (2, 3, 3, 4)), (3, (2, 3, 3, 4))] * 4

HARMONIC_KINDS = ("w", "wtilde", "ug", "pg")


def _inversion_params(index: int) -> dict:
    return {"s": _S_VALUES[index % len(_S_VALUES)]}


def inversion_seeds(hesnil, seed: int) -> List[int]:
    return find_member_seeds(hesnil, INVERSION_HN_SLOTS, seed, "inversion")


def inversion_build(hesnil, member_seeds, seed: int) -> List[Item]:
    items = build_hn_items(hesnil, INVERSION_HN_SLOTS, member_seeds)
    for index, item in enumerate(items):
        item.params.update(_inversion_params(index))
    return items + build_non_hn_items(hesnil, INVERSION_NON_HN, seed, "inversion",
                                      _inversion_params)


def _compose_cap(p) -> int:
    return INVERSION_T_ORDER * (max(p.degree(), 2) - 2) + 2


def inversion_run(hesnil, item: Item):
    p, t = item.poly, INVERSION_T_ORDER
    cap = _compose_cap(p)
    out = {"general": hesnil.invert_general(p, t)}
    out["capped"] = hesnil.invert_general(p, t, z_cap=cap)
    out["compose"] = hesnil.compose_check(p, out["capped"], direction="fg", z_cap=cap)
    out["burgers_gradient"] = hesnil.burgers_residual(out["general"], form="gradient")
    if item.hn:
        s = hesnil.gr(*item.params["s"])
        out["hn"] = hesnil.invert_hn(p, t)
        out["closed"] = hesnil.invert_closed(p, t)
        out["fixed_point"] = hesnil.pair_from_fixed_point(p, t)
        out["burgers_laplacian"] = hesnil.burgers_residual(out["hn"], form="laplacian")
        out["heat"] = hesnil.heat_residual(p, out["hn"], s, INVERSION_EXP_CAP)
        out["exp_formula"] = hesnil.exp_formula_check(p, out["hn"], s, INVERSION_EXP_CAP)
    return out


def inversion_check(hesnil, item: Item, out):
    t = INVERSION_T_ORDER
    general = out["general"]
    if general.q_slot(1) != item.poly:
        return "Q_[1] differs from P", None
    cap = _compose_cap(item.poly)
    if any(out["capped"].q_slot(m) != general.q_slot(m).truncate(cap) for m in range(1, t + 1)):
        return "the capped pair is not the truncation of the uncapped one", None
    if not all(r.is_zero() for r in out["compose"]):
        return "F_t(G_t(z)) - z is not zero", None
    if not out["burgers_gradient"].is_zero():
        return "gradient-form Burgers residual is not zero", None
    if not item.hn:
        return None, None
    for method in ("hn", "closed", "fixed_point"):
        for m in range(1, t + 1):
            if out[method].q_slot(m) != general.q_slot(m):
                return f"{method} disagrees with general at Q_[{m}]", None
    if not out["burgers_laplacian"].is_zero():
        return "Laplacian-form Burgers residual is not zero", None
    if not out["heat"].is_zero():
        return "heat residual is not zero", None
    lhs, rhs = out["exp_formula"]
    if lhs != rhs:
        return "exp formula sides differ", None
    if item.kind in HARMONIC_KINDS:
        for m in range(2, t + 1):
            if not general.q_slot(m).is_zero():
                return f"harmonic member has Q_[{m}] != 0", None
    return None, None


def inversion_oracle(hesnil, item: Item) -> Callable[[object], bool]:
    return lambda summary: True


# -- hn_screen ---------------------------------------------------------------------

HN_SCREEN_SLOTS = [
    ("w", 3, 3, None, {}),
    ("w", 4, 4, None, {}),
    ("w", 5, 4, None, {}),
    ("wtilde", 4, 3, None, {}),
    ("wtilde", 5, 3, None, {}),
    ("ug", 3, 3, None, {}),
    ("ug", 4, 4, ((0, 4), (1, 3)), {}),
    ("ug", 5, 4, ((0, 4), (2, 2)), {}),
    ("pg", 4, 3, ((0, 3), (1, 2)), {}),
    ("pg", 4, 4, ((0, 4), (1, 3)), {}),
    ("ph", 4, 3, None, {}),
    ("ph", 4, 4, None, {}),
]
HN_SCREEN_NON_HN = [(3, (2, 3, 3)), (4, (2, 3, 4, 4)), (5, (2, 3, 3)),
                    (3, (2, 3, 4, 4)), (4, (2, 3, 3)), (5, (2, 3, 4, 4))] * 2


def hn_screen_seeds(hesnil, seed: int) -> List[int]:
    return find_member_seeds(hesnil, HN_SCREEN_SLOTS, seed, "hn_screen")


def hn_screen_build(hesnil, member_seeds, seed: int) -> List[Item]:
    items = build_hn_items(hesnil, HN_SCREEN_SLOTS, member_seeds)
    items += build_non_hn_items(hesnil, HN_SCREEN_NON_HN, seed, "hn_screen", lambda i: {})
    for index, item in enumerate(items):
        item.params["point_seed"] = f"hn_screen:{seed}:{index}"
    return items


def hn_screen_run(hesnil, item: Item):
    return hesnil.is_hn(item.poly)


def hn_screen_check(hesnil, item: Item, report):
    verdict = report.is_hn
    if report.verdict_matrix != verdict or report.verdict_laplacian != verdict:
        return "the two criteria disagree", verdict
    if item.hn and verdict is not True:
        return "a construction got the verdict False", verdict
    return None, verdict


def hessian_facts(text: str, arity: int, point_seed: str) -> Tuple[bool, bool]:
    """(nilpotent, some trace nonzero) for Hes P at a seeded rational point.

    Independent of the library: sympy reads P from its text form,
    differentiates it and works with the exact matrix Hes P(a) over Q(i).
    """
    import sympy
    from sympy.polys.matrices import DomainMatrix

    names = [f"z{k}" for k in range(1, arity + 1)]
    symbols = sympy.symbols(names)
    local = dict(zip(names, symbols))
    local["i"] = sympy.I
    expr = sympy.sympify(text.replace("^", "**"), locals=local)
    rng = random.Random(point_seed)

    def coordinate():
        return sympy.Rational(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))

    point = {z: coordinate() + sympy.I * coordinate() for z in symbols}
    h = sympy.hessian(expr, symbols).xreplace(point).applyfunc(sympy.expand)
    h = DomainMatrix.from_Matrix(h).convert_to(sympy.QQ_I)
    zero = h.domain.zero
    power = h
    some_trace = False
    for k in range(arity):
        if k:
            power = power * h
        rows = power.to_list()
        some_trace |= sum((rows[j][j] for j in range(arity)), zero) != zero
    return power.is_zero_matrix, some_trace


def hn_screen_oracle(hesnil, item: Item) -> Callable[[object], bool]:
    nilpotent, some_trace = hessian_facts(hesnil.format_poly(item.poly), item.poly.arity,
                                          item.params["point_seed"])
    return lambda verdict: nilpotent if verdict else some_trace


# -- registry -------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: Callable
    build: Callable
    run: Callable
    check: Callable
    oracle: Callable


WORKLOADS = {
    "vanishing": Workload("vanishing", vanishing_seeds, vanishing_build,
                          vanishing_run, vanishing_check, vanishing_oracle),
    "inversion": Workload("inversion", inversion_seeds, inversion_build,
                          inversion_run, inversion_check, inversion_oracle),
    "hn_screen": Workload("hn_screen", hn_screen_seeds, hn_screen_build,
                          hn_screen_run, hn_screen_check, hn_screen_oracle),
}
