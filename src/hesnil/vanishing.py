"""Experiment harness for windowed vanishing of iterated Laplacians.

For a Hessian-nilpotent P the quantities Delta^m P^{m+1} are conjectured to
vanish for all m beyond the explicit cutoff alpha_bound(n, d).  This module
generates seeded corpora, computes the vanishing window, cross-checks the
theorem-level consequences (which must hold, or the implementation is wrong),
records the conjecture-level outcomes verbatim, and serializes reports.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from math import ceil, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussrat import GaussianRational
from .poly import Poly, format_poly
from .diffops import PolyVector, apply_D, grad, laplacian_powers_table, sigma_squared
from .nilpotency import TheoremCheckError, is_hn
from .inversion import _hn_slots
from .generators import (
    IsotropicSet,
    IsotropyViolation,
    OrthogonalityViolation,
    _SCALE_POOL,
    pg_construction,
    ph_construction,
    sample_isotropic,
    ug_construction,
    w_construction,
    w_tilde_construction,
)


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


# the generator params each kind accepts
_PARAM_KEYS = {"w": {"count"}, "wtilde": {"counts"}, "ug": {"k"}, "pg": set(), "ph": set()}
GENERATOR_KINDS = tuple(_PARAM_KEYS)

# a report holds t_order flags per trial; the cutoff + 2 fits through n=12 at d=4
MAX_T_ORDER = 100_000
# a trial of the sparsest kind (w, count 1, d=3, t_order 4) takes 8.4 s at n = 64 on 2 cores
MAX_N = 64
# and (w, count 1, n=2, t_order 4) 0.5 s at d = 128, 5.5 s at d = 256 and 33 s at d = 400
MAX_D = 256


def alpha_bound(n: int, d: int) -> Fraction:
    """Cutoff ((d-1)^(n-1) - (d-1)) / (d-2), and its limit n - 2 at degree 2: for
    P = z^T H z / 2, flag m holds exactly when H^{m+1} = 0, and H^n = 0."""
    if d < 2:
        raise ValueError("alpha_bound requires d >= 2")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if d == 2:
        return Fraction(n - 2)
    return Fraction((d - 1) ** (n - 1) - (d - 1), d - 2)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    d: int
    generator_kind: str
    generator_params: dict
    trials: int
    seed: int
    t_order: int
    out: Optional[str] = None
    format: str = "json"
    parallelism: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Validate and normalize the JSON config schema.

        Required: n, d, generator{kind, params}, trials, seed.  t_order
        defaults to max(4, ceil(bound) + 2); derived or explicit, it must be
        an integer in [1, MAX_T_ORDER].
        """
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {"n", "d", "generator", "trials", "seed", "t_order",
                   "out", "format", "parallelism"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("n", "d", "generator", "trials", "seed"):
            if key not in data:
                raise ConfigError(f"missing config key: {key}")
        n, d = data["n"], data["d"]
        gen = data["generator"]
        if not isinstance(gen, dict) or "kind" not in gen:
            raise ConfigError("generator must be an object with a 'kind'")
        if set(gen) - {"kind", "params"}:
            raise ConfigError("generator accepts only 'kind' and 'params'")
        kind = gen["kind"]
        params = gen.get("params", {})
        _member_params(n, d, kind, params)
        trials = data["trials"]
        if not _is_int(trials) or trials < 0:
            raise ConfigError("trials must be a nonnegative integer")
        seed = data["seed"]
        if not _is_int(seed):
            raise ConfigError("seed must be an integer")
        t_order = data.get("t_order")
        if t_order is None:
            t_order = max(4, ceil(alpha_bound(n, d)) + 2)
        if not _is_int(t_order) or not 1 <= t_order <= MAX_T_ORDER:
            raise ConfigError(f"t_order must be an integer in [1, MAX_T_ORDER = {MAX_T_ORDER}]; "
                              f"it defaults to ceil(cutoff) + 2")
        fmt = data.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")
        out = data.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("out must be a path string")
        parallelism = data.get("parallelism", 1)
        if not _is_int(parallelism) or parallelism < 1:
            raise ConfigError("parallelism must be a positive integer")
        return cls(n=n, d=d, generator_kind=kind, generator_params=dict(params),
                   trials=trials, seed=seed, t_order=t_order, out=out, format=fmt,
                   parallelism=parallelism)


@dataclass(frozen=True)
class VanishingReport:
    """One trial's outcome; field order here is the serialization order."""

    provenance: dict
    hn_verdict: bool
    vanishing_flags: List[bool]
    deg_t: int
    bound: Optional[Fraction]
    bound_respected: bool
    isotropy_pass: Optional[Dict[str, Optional[bool]]]

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["bound"] = None if self.bound is None else str(self.bound)
        return out


def _trial_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _random_homogeneous(rng: random.Random, arity: int, degree: int,
                        terms: int = 3, offset: int = 0) -> Poly:
    """A random nonzero homogeneous polynomial with small sparse support, on the
    variables offset..arity-1."""
    while True:
        acc: dict = {}
        for _ in range(terms):
            e = [0] * arity
            for _ in range(degree):
                e[rng.randrange(offset, arity)] += 1
            mono = tuple(e)
            coeff = rng.choice(_SCALE_POOL)
            acc[mono] = acc.get(mono, GaussianRational(0)) + coeff
        p = Poly(arity, acc)
        if not p.is_zero():
            return p


def _format_vector(vec) -> str:
    return "(" + ", ".join(str(c) for c in vec) + ")"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _member_params(n: int, d: int, kind: str, params: dict) -> dict:
    """The generator params of kind, checked against n, with defaults filled in;
    n and d are checked first."""
    if not _is_int(n) or n < 2:
        raise ConfigError("n must be an integer >= 2")
    if n > MAX_N:
        raise ConfigError(f"n must be at most MAX_N = {MAX_N}")
    if not _is_int(d) or d < 2:
        raise ConfigError("d must be an integer >= 2")
    if d > MAX_D:
        raise ConfigError(f"d must be at most MAX_D = {MAX_D}")
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind: {kind!r}")
    if not isinstance(params, dict):
        raise ConfigError("generator params must be an object")
    unknown = set(params) - _PARAM_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown {kind} params: {sorted(unknown)}")
    if kind in ("pg", "ph") and n % 2:
        raise ConfigError(f"{kind} needs an even number of variables")
    if kind == "ph" and n < 4:
        raise ConfigError("ph needs at least four variables")
    half = n // 2
    if kind == "w":
        count = params.get("count", max(1, half))
        if not _is_int(count) or not 0 <= count <= half:
            raise ConfigError(
                f"w needs an integer count with 0 <= count <= n // 2, got {count!r} with n={n}")
        return {"count": count}
    if kind == "wtilde":
        # one vector per degree from the top down, as many as fit in C^n
        k = min(d - 1, half)
        counts = params.get("counts", [0] * (d - 1 - k) + [1] * k)
        if (not isinstance(counts, list) or not counts
                or not all(_is_int(c) and c >= 0 for c in counts)):
            raise ConfigError(
                f"wtilde counts must be a nonempty list of nonnegative integers, got {counts!r}")
        if not 1 <= sum(counts) <= half:
            raise ConfigError(
                f"wtilde needs 1 <= sum(counts) <= n // 2, got {sum(counts)} with n={n}")
        return {"counts": counts}
    if kind == "ug":
        k = params.get("k", min(2, half))
        if not _is_int(k) or not 1 <= k <= half:
            raise ConfigError(f"ug needs an integer k with 1 <= k <= n // 2, got {k!r} with n={n}")
        return {"k": k}
    return {}


def build_member(n: int, d: int, kind: str, params: dict, trial_seed: int,
                 index: int = 0) -> Tuple[Poly, dict]:
    """Build a corpus member from an explicit per-member seed."""
    params = _member_params(n, d, kind, params)
    ts = trial_seed
    rng = random.Random(ts)
    provenance: dict = {"kind": kind, "trial": index, "trial_seed": ts,
                        "n": n, "d": d}

    # the params are valid, so an isotropy or orthogonality failure below is a sampler bug
    try:
        if kind == "w":
            family = sample_isotropic(n, params["count"], ts, pairwise_orthogonal=True)
            provenance["vectors"] = [_format_vector(v) for v in family]
            return w_construction(family, d), provenance

        if kind == "wtilde":
            counts = params["counts"]
            total = sum(counts)
            pool = sample_isotropic(n, total, ts, pairwise_orthogonal=True)
            sets, start = [], 0
            for c in counts:
                sets.append(IsotropicSet(n, pool.vectors[start:start + c],
                                         pairwise_orthogonal=True))
                start += c
            provenance["vectors"] = [[_format_vector(v) for v in s] for s in sets]
            return w_tilde_construction(sets, max_degree=d), provenance

        if kind == "ug":
            k = params["k"]
            betas = sample_isotropic(n, k, ts, pairwise_orthogonal=True)
            g = _random_homogeneous(rng, k, d)
            provenance["vectors"] = [_format_vector(v) for v in betas]
            provenance["inner"] = format_poly(g)
            return ug_construction(g, betas), provenance

        if kind == "pg":
            half = n // 2
            g = _random_homogeneous(rng, half, d)
            provenance["inner"] = format_poly(g)
            return pg_construction(g), provenance

        # ph
        half = n // 2
        components = []
        for i in range(half):
            if i == half - 1:
                components.append(Poly.zero(half))
            elif i == 0:
                components.append(_random_homogeneous(rng, half, d - 1,
                                                      terms=2, offset=i + 1))
            elif rng.random() < 0.5:
                components.append(_random_homogeneous(rng, half, d - 1,
                                                      terms=2, offset=i + 1))
            else:
                components.append(Poly.zero(half))
        h = PolyVector(components)
        p, nilpotent = ph_construction(h)
        if not nilpotent:
            raise TheoremCheckError("triangular map produced a non-nilpotent Jacobian")
        provenance["map"] = [format_poly(c) for c in components]
        return p, provenance
    except (IsotropyViolation, OrthogonalityViolation) as exc:
        raise TheoremCheckError(str(exc)) from exc


def _annihilated(ops: Sequence[Tuple[str, Poly]],
                 targets: Sequence[Poly]) -> Dict[Tuple[str, int], bool]:
    """(label, m) -> whether f(D) targets[m] = 0, for each labelled operator f."""
    return {(label, m): apply_D(f, target).is_zero()
            for m, target in enumerate(targets) for label, f in ops}


def _ideal_ops(p: Poly) -> List[Tuple[str, Poly]]:
    """sigma^2 and the partials of P: generators of the derivative ideal."""
    return [("sigma^2", sigma_squared(p.arity))] + [
        (f"partial_{i + 1}", dp) for i, dp in enumerate(grad(p))]


def _pd_pass(p: Poly, d: int, w0: Sequence[Poly], big_m: int) -> bool:
    """The pd_qt_check verdict, read off w0[m] = Delta^m P^{m+1}.

    Q_[m] is Delta^{m-1} P^m times a nonzero constant, so P(D) Q_[m] = 0
    exactly when P(D) w0[m-1] = 0; the spot checks of P, and so of
    (P^2)(D) = P(D)P(D), on w0[0..2] are among those and run once.
    """
    if d == 2:
        ops = [("P", p), ("sigma^2", sigma_squared(p.arity))]
        return all(_annihilated(ops, w0[:big_m + 1]).values())
    return (all(_annihilated([("P", p)], w0[:max(big_m, 3)]).values())
            and all(_annihilated([("Delta P^2", w0[1])], w0[:3]).values()))


def isotropy_check(p: Poly, d: int, m_max: int) -> Dict[Tuple[str, int], bool]:
    """Apply sigma^2(D) and each (dP/dz_i)(D) to Delta^m P^{m+1}, m <= m_max.

    For a homogeneous Hessian-nilpotent P of degree >= 3 every one of these
    must be zero; a False entry falsifies the implementation, not the theory.
    """
    if d < 3:
        raise ValueError("isotropy_check requires degree >= 3")
    if p.is_homogeneous() != d:
        raise ValueError("P must be homogeneous of the stated degree")
    if not is_hn(p).is_hn:
        raise ValueError("P must be Hessian-nilpotent")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    return _annihilated(_ideal_ops(p), _vanishing_flags(p, m_max))


def pd_qt_check(p: Poly, big_m: int) -> bool:
    """P(D) annihilates every inversion coefficient Q_[m], m <= M.

    Degree >= 3: also spot-checks (Delta^l P^k)(D) Delta^m P^{m+1} = 0 for
    (k, l) in {(1,0), (2,0), (2,1)} and m <= 2.  Degree 2 runs the variant
    with operators from {P, sigma^2} instead.
    """
    if big_m < 1:
        raise ValueError("M must be at least 1")
    d = p.is_homogeneous()
    if d is None or d < 2:
        raise ValueError("P must be homogeneous of degree >= 2")
    if not is_hn(p).is_hn:
        raise ValueError("P must be Hessian-nilpotent")
    top = big_m if d == 2 else max(big_m - 1, 2)
    return _pd_pass(p, d, _vanishing_flags(p, top), big_m)


def _vanishing_flags(p: Poly, top: int) -> List[Poly]:
    """The window W[m] = Delta^m P^{m+1}, m = 0..top, from one chain of powers of P;
    the vanishing flags up to top are the zero tests of W[1..]."""
    return laplacian_powers_table(p, top, (1,))[0]


def run_trial(cfg: ExperimentConfig, index: int) -> Tuple[VanishingReport, List[str]]:
    """One corpus member: report plus any theorem-level failure messages."""
    ts = _trial_seed(cfg.seed, index)
    # all `hesnil generate` needs to rebuild the member
    tag = (f"trial {index} ({cfg.generator_kind}, n={cfg.n}, d={cfg.d}, "
           f"params {json.dumps(cfg.generator_params, sort_keys=True)}, trial_seed {ts})")
    try:
        p, provenance = build_member(cfg.n, cfg.d, cfg.generator_kind, cfg.generator_params,
                                     ts, index)
    except TheoremCheckError as exc:
        raise TheoremCheckError(f"{tag}, build_member: {exc}") from exc
    big_m = cfg.t_order
    failures: List[str] = []

    # the self-certifying recurrence gives the verdict and the flags past the window
    try:
        hn, slots = _hn_slots(p, big_m + 1)
        if not hn:
            raise TheoremCheckError("generator produced a non-HN polynomial")
    except TheoremCheckError as exc:
        raise TheoremCheckError(f"{tag}, is_hn: {exc}") from exc
    # the isotropy, P(D) and cross-check steps read the window up to this m
    window = _vanishing_flags(p, max(min(big_m, 4), 2))
    flags = [w.is_zero() for w in window[1:big_m + 1]]
    flags += [slots[m].is_zero() for m in range(len(flags) + 1, big_m + 1)]
    # for HN P, Q_[m+1] = Delta^m P^{m+1} / (2^m m! (m+1)!) (the closed form),
    # so the recurrence must agree with the window on its values
    off = [m for m in range(min(big_m, 4) + 1) if slots[m] != window[m].scale(
        Fraction(1, 2 ** m * factorial(m) * factorial(m + 1)))]
    if off:
        failures.append(f"{tag}, flag cross-check: the recurrence's Q_[m+1] differs "
                        f"from Delta^m P^(m+1) / (2^m m! (m+1)!) at m = {off}")

    degree_t = max((m for m, zero in enumerate(flags, 1) if not zero), default=0)
    d_actual = p.is_homogeneous()
    isotropy: Optional[Dict[str, Optional[bool]]] = None
    if d_actual is not None and d_actual >= 2:
        pd_ok = _pd_pass(p, d_actual, window, min(big_m, 4))
        if d_actual >= 3:
            ideal = _annihilated(_ideal_ops(p), window[:min(big_m, 3) + 1])
            ideal_ok = all(ideal.values())
            isotropy = {"derivative_ideal": ideal_ok, "pd_on_q": pd_ok}
            if not ideal_ok:
                failures.append(f"{tag}, isotropy: derivative-ideal annihilation failed")
            if not pd_ok:
                failures.append(f"{tag}, P(D): annihilation of Q coefficients failed")
        else:
            isotropy = {"derivative_ideal": None, "pd_on_q": pd_ok}
            if not pd_ok:
                failures.append(f"{tag}, P(D): degree-2 annihilation variant failed")

    bound = alpha_bound(cfg.n, cfg.d)
    respected = all(flags[m - 1] for m in range(1, big_m + 1) if m > bound)

    return (
        VanishingReport(
            provenance=provenance,
            hn_verdict=hn,
            vanishing_flags=flags,
            deg_t=degree_t,
            bound=bound,
            bound_respected=respected,
            isotropy_pass=isotropy,
        ),
        failures,
    )


def run_vanishing_full(cfg: ExperimentConfig) -> Tuple[List[VanishingReport], List[str]]:
    """All trials in seed order, plus collected theorem-level failures.

    Trials run in a process pool of min(parallelism, trials, CPU count)
    workers, or serially when that is 1.
    """
    workers = min(cfg.parallelism, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_trial, itertools.repeat(cfg), range(cfg.trials)))
    else:
        outcomes = [run_trial(cfg, i) for i in range(cfg.trials)]
    reports = [r for r, _ in outcomes]
    failures = [msg for _, fails in outcomes for msg in fails]
    return reports, failures


_CSV_FIXED_PRE = ["provenance", "hn_verdict"]
_CSV_FIXED_POST = ["deg_t", "bound", "bound_respected",
                   "isotropy_derivative_ideal", "isotropy_pd_on_q"]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_report(reports: Sequence[VanishingReport], fmt: str) -> str:
    """Serialize reports with stable field order; fmt is 'json' or 'csv'."""
    if fmt == "json":
        payload = [r.to_json_dict() for r in reports]
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError("format must be 'json' or 'csv'")
    big_m = len(reports[0].vanishing_flags) if reports else 0
    header = _CSV_FIXED_PRE + [f"m{j}" for j in range(1, big_m + 1)] + _CSV_FIXED_POST
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in reports:
        iso = r.isotropy_pass or {}
        row = [json.dumps(r.provenance, sort_keys=True), _csv_cell(r.hn_verdict)]
        row.extend(_csv_cell(flag) for flag in r.vanishing_flags)
        row.extend([
            _csv_cell(r.deg_t),
            _csv_cell(None if r.bound is None else str(r.bound)),
            _csv_cell(r.bound_respected),
            _csv_cell(iso.get("derivative_ideal")),
            _csv_cell(iso.get("pd_on_q")),
        ])
        writer.writerow(row)
    return buf.getvalue()


def emit_report(reports: Sequence[VanishingReport], fmt: str, path: str) -> str:
    """Write the serialized reports to path and return the text."""
    text = render_report(reports, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def load_report_json(path: str) -> List[VanishingReport]:
    """Read back a JSON report file into VanishingReport objects."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    out = []
    for item in payload:
        values = {f.name: item[f.name] for f in fields(VanishingReport)}
        if values["bound"] is not None:
            values["bound"] = Fraction(values["bound"])
        out.append(VanishingReport(**values))
    return out
