"""Randomized verification suite over the whole catalog.

run_suite() draws seeded random samples and checks, in one pass:

* the parameter-space product against the dense 4x4 matrix product,
* assemble/disassemble round trips,
* closure of the reality conditions under multiplication,
* closure of every family at fixed constants,
* the generic rank of every family against its catalog label,
* the determinant restriction (rank-one story) of every rank-two family,
* zero pattern, closure, rank and constraint tables of every variant.

Findings carry a status of ``pass``, ``discrepancy`` or ``fail``.  A
discrepancy means the numerics are internally consistent but contradict a
rank label carried by the catalog; these are reported, never hidden, and
only promoted to failures by strict consumers.  A fail means the numerics
broke an invariant the library itself promises.

Every check derives its own seed from (suite seed, check name, subject), so
runs are reproducible check by check and the report text is deterministic
for a given configuration.  The suite never skips: the number of findings
is a function of the configuration alone and is asserted before returning.

Same draw order: a check draws all its samples at once, from one call on
its generator whose shape lays the values out in the order a loop of
single draws (one random parameter set, member or variant at a time)
would consume them, and then evaluates them as one stack.  Each sample is
therefore the one the single-draw loop gives, bit for bit, and the report
does not depend on the stacking.  Family closure tests its products for
membership as one stack too, in one pass of the membership kernel,
whose bits for a row depend on that row alone (neither on the stack nor
on a power-of-two scale), so each product gets what membership() gives
it; it walks the results in loop order, so a violation names the first
failing pair the loop would meet.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from kmln.core import (
    _cvec4_from_draws,
    assemble,
    compose,
    disassemble,
    is_real_conditions,
    numeric_rank,
    random_params,
    random_real_params,
)
from kmln.families import (
    FAMILIES,
    FAMILY_TAGS,
    ClosureViolation,
    closure_check,
    descriptor,
    instance_params,
    rank1_restrict,
    rank_profile,
    sample_instance,
)
from kmln.variants import (
    VARIANT_IDS,
    _lines_vanish,
    constraint_residual,
    parse_variant,
    sample_variant,
    variant_name,
)

__all__ = ["SuiteConfig", "Finding", "FindingsReport", "run_suite"]


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of one verification run.

    families/variants of None mean "all"; passing one filter and not the
    other drops the unfiltered group, so a run over a single family does
    not drag the full variant battery along.  The three global checks
    always run.
    """

    seed: int = 0
    samples: int = 100
    tol: float = 1e-9
    real: bool = False
    families: tuple = None
    variants: tuple = None
    rank_instances: int = 20


@dataclass(frozen=True)
class Finding:
    check: str
    subject: str
    status: str
    residual: float = None
    claimed: int = None
    observed: int = None
    detail: str = ""


@dataclass(frozen=True)
class FindingsReport:
    config: SuiteConfig
    findings: tuple

    @property
    def failures(self):
        return tuple(f for f in self.findings if f.status == "fail")

    @property
    def discrepancies(self):
        return tuple(f for f in self.findings if f.status == "discrepancy")

    def exit_code(self, strict: bool = False) -> int:
        if self.failures:
            return 1
        if strict and self.discrepancies:
            return 1
        return 0

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            "suite seed={} samples={} tol={:g} real={}".format(
                cfg.seed, cfg.samples, cfg.tol, "yes" if cfg.real else "no"
            )
        ]
        for f in self.findings:
            parts = [f"check={f.check}", f"subject={f.subject}",
                     f"status={f.status}"]
            if f.residual is not None:
                parts.append(f"residual={f.residual:.3e}")
            if f.claimed is not None:
                parts.append(f"claimed={f.claimed}")
            if f.observed is not None:
                parts.append(f"observed={f.observed}")
            if f.detail:
                parts.append(f"detail={f.detail}")
            lines.append(" ".join(parts))
        count = {"pass": 0, "discrepancy": 0, "fail": 0}
        for f in self.findings:
            count[f.status] += 1
        lines.append(
            "summary checks={} pass={} discrepancy={} fail={}".format(
                len(self.findings), count["pass"], count["discrepancy"],
                count["fail"],
            )
        )
        return "\n".join(lines) + "\n"


def _subseed(seed, check, subject) -> int:
    digest = hashlib.sha256(f"{seed}|{check}|{subject}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _selection(cfg: SuiteConfig):
    if cfg.families is not None:
        fams = tuple(descriptor(t).tag for t in cfg.families)
    elif cfg.variants is not None:
        fams = ()
    else:
        fams = FAMILY_TAGS
    if cfg.variants is not None:
        vids = tuple(parse_variant(v) for v in cfg.variants)
    elif cfg.families is not None:
        vids = ()
    else:
        vids = VARIANT_IDS
    return fams, vids


def _check_homomorphism(cfg) -> Finding:
    rng = np.random.default_rng(_subseed(cfg.seed, "product", "global"))
    pairs = random_params(rng, (cfg.samples, 2))
    g = assemble(pairs)
    dense = g[:, 0] @ g[:, 1]
    via_params = assemble(compose(pairs[:, 0], pairs[:, 1]))
    err = np.linalg.norm(via_params - dense, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(dense, axis=(-2, -1)), 1.0)
    worst = float((err / scale).max())
    status = "pass" if worst <= cfg.tol else "fail"
    return Finding("product_vs_dense", "global", status, residual=worst)


def _check_round_trip(cfg) -> Finding:
    rng = np.random.default_rng(_subseed(cfg.seed, "round_trip", "global"))
    # per sample: a random parameter set, then the real and imaginary parts
    # of a random matrix
    x = rng.uniform(-1, 1, (cfg.samples, 64))
    p = _cvec4_from_draws(x[:, :32].reshape(-1, 4, 8)).reshape(-1, 16)
    g = (x[:, 32:48] + 1j * x[:, 48:]).reshape(-1, 4, 4)
    back = disassemble(assemble(p))
    worst_p = (np.linalg.norm(back - p, axis=-1)
               / np.maximum(np.linalg.norm(p, axis=-1), 1.0))
    back_g = assemble(disassemble(g))
    worst_g = (np.linalg.norm(back_g - g, axis=(-2, -1))
               / np.maximum(np.linalg.norm(g, axis=(-2, -1)), 1.0))
    worst = float(max(worst_p.max(), worst_g.max()))
    status = "pass" if worst <= cfg.tol else "fail"
    return Finding("round_trip", "global", status, residual=worst)


def _check_reality(cfg) -> Finding:
    rng = np.random.default_rng(_subseed(cfg.seed, "reality", "global"))
    pairs = random_real_params(rng, (cfg.samples, 2))
    prod = compose(pairs[:, 0], pairs[:, 1])
    g = assemble(prod)
    scale = np.maximum(np.linalg.norm(g, axis=(-2, -1)), 1.0)
    worst = float((np.abs(g.imag).max((-2, -1)) / scale).max())
    ok = bool(is_real_conditions(prod, cfg.tol).all())
    status = "pass" if ok and worst <= cfg.tol else "fail"
    return Finding("reality_closure", "global", status, residual=worst)


def _check_family_closure(cfg, tag) -> Finding:
    seed = _subseed(cfg.seed, "family_closure", tag)
    try:
        rep = closure_check(tag, samples=cfg.samples, seed=seed,
                            tol=cfg.tol, real=cfg.real)
    except ClosureViolation as exc:
        return Finding("family_closure", tag, "fail", residual=exc.residual,
                       detail=exc.reason)
    return Finding("family_closure", tag, "pass", residual=rep.worst_residual)


def _check_family_rank(cfg, tag) -> Finding:
    fam = FAMILIES[tag]
    seed = _subseed(cfg.seed, "family_rank", tag)
    observed = rank_profile(tag, seed=seed, instances=cfg.rank_instances)
    if observed == fam.claimed_rank:
        return Finding("family_rank", tag, "pass",
                       claimed=fam.claimed_rank, observed=observed)
    if observed == fam.generic_rank:
        return Finding(
            "family_rank", tag, "discrepancy",
            claimed=fam.claimed_rank, observed=observed,
            detail="catalog label disagrees with observed generic rank",
        )
    return Finding("family_rank", tag, "fail",
                   claimed=fam.claimed_rank, observed=observed,
                   detail="observed rank matches neither label nor record")


def _check_family_rank1(cfg, tag) -> Finding:
    fam = FAMILIES[tag]
    rng = np.random.default_rng(_subseed(cfg.seed, "family_rank1", tag))
    inst = rank1_restrict(sample_instance(tag, rng, size=cfg.rank_instances))
    observed = int(numeric_rank(assemble(instance_params(inst))).max())
    if fam.rank1_collapses:
        if observed <= 1:
            return Finding("family_rank1", tag, "pass",
                           claimed=1, observed=observed)
        return Finding("family_rank1", tag, "fail", claimed=1,
                       observed=observed,
                       detail="restriction was recorded as collapsing")
    if observed == fam.generic_rank:
        return Finding(
            "family_rank1", tag, "discrepancy",
            claimed=1, observed=observed,
            detail="determinant restriction does not reduce the rank",
        )
    return Finding("family_rank1", tag, "fail", claimed=1, observed=observed,
                   detail="observed rank matches neither label nor record")


def _line_residual(g, vid):
    """Worst norm of row i and column j of a stack of matrices, each
    relative to its own norm (at least 1)."""
    i, j = vid
    scale = np.maximum(np.linalg.norm(g, axis=(-2, -1)), 1.0)
    line = np.hypot(np.linalg.norm(g[:, i, :], axis=-1),
                    np.linalg.norm(g[:, :, j], axis=-1))
    return float((line / scale).max())


def _check_variant_zero(cfg, vid) -> Finding:
    name = variant_name(vid)
    rng = np.random.default_rng(_subseed(cfg.seed, "variant_zero", name))
    g = assemble(sample_variant(vid, rng, cfg.real, size=cfg.samples))
    worst = _line_residual(g, vid)
    status = "pass" if worst <= cfg.tol else "fail"
    return Finding("variant_zero_pattern", name, status, residual=worst)


def _check_variant_closure(cfg, vid) -> Finding:
    name = variant_name(vid)
    rng = np.random.default_rng(_subseed(cfg.seed, "variant_closure", name))
    pairs = sample_variant(vid, rng, cfg.real, size=(cfg.samples, 2))
    g = assemble(compose(pairs[:, 0], pairs[:, 1]))
    worst = _line_residual(g, vid)
    # the stacked variant_membership; the public one answers one matrix
    ok = bool(_lines_vanish(vid, g, cfg.tol).all())
    status = "pass" if ok and worst <= cfg.tol else "fail"
    return Finding("variant_closure", name, status, residual=worst)


def _check_variant_rank(cfg, vid) -> Finding:
    name = variant_name(vid)
    rng = np.random.default_rng(_subseed(cfg.seed, "variant_rank", name))
    members = sample_variant(vid, rng, size=cfg.rank_instances)
    observed = int(numeric_rank(assemble(members)).max())
    status = "pass" if observed == 3 else "fail"
    return Finding("variant_rank", name, status, claimed=3, observed=observed)


def _check_variant_constraints(cfg, vid) -> Finding:
    name = variant_name(vid)
    rng = np.random.default_rng(_subseed(cfg.seed, "variant_constraints", name))
    members = sample_variant(vid, rng, size=cfg.samples)
    worst = float(constraint_residual(vid, members).max())
    # a generic parameter set must violate the table; guards against a
    # degenerate (trivially satisfiable) transcription
    generic = random_params(rng, 5)
    separated = bool((constraint_residual(vid, generic) > 100 * cfg.tol).all())
    status = "pass" if worst <= cfg.tol and separated else "fail"
    detail = "" if separated else "table accepts generic parameter sets"
    return Finding("variant_constraints", name, status, residual=worst,
                   detail=detail)


def run_suite(config: SuiteConfig = None) -> FindingsReport:
    """Run every selected check and return the full findings report."""
    cfg = config or SuiteConfig()
    if cfg.samples <= 0 or cfg.rank_instances <= 0:
        raise ValueError("samples and rank_instances must be positive")
    if cfg.tol <= 0:
        raise ValueError("tol must be positive")
    fams, vids = _selection(cfg)

    findings = [
        _check_homomorphism(cfg),
        _check_round_trip(cfg),
        _check_reality(cfg),
    ]
    for tag in fams:
        findings.append(_check_family_closure(cfg, tag))
    for tag in fams:
        findings.append(_check_family_rank(cfg, tag))
    for tag in fams:
        if FAMILIES[tag].generic_rank == 2:
            findings.append(_check_family_rank1(cfg, tag))
    for vid in vids:
        findings.append(_check_variant_zero(cfg, vid))
    for vid in vids:
        findings.append(_check_variant_closure(cfg, vid))
    for vid in vids:
        findings.append(_check_variant_rank(cfg, vid))
    for vid in vids:
        findings.append(_check_variant_constraints(cfg, vid))

    expected = (
        3
        + 2 * len(fams)
        + sum(1 for t in fams if FAMILIES[t].generic_rank == 2)
        + 4 * len(vids)
    )
    if len(findings) != expected:
        raise RuntimeError(
            f"suite ran {len(findings)} checks, expected {expected}"
        )
    normalized = replace(cfg, families=fams if cfg.families is not None else None,
                         variants=tuple(variant_name(v) for v in vids)
                         if cfg.variants is not None else None)
    return FindingsReport(config=normalized, findings=tuple(findings))
