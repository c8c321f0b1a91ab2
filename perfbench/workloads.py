"""The benchmark's workloads: seeded input streams, the operation each one
times, and the checker every output goes through.

Every input is drawn from a ``numpy.random.Generator`` seeded by the
benchmark's ``--seed``; the program sees only the generated inputs.  A
stream never repeats an input within a run (continuous draws), so a memo
keyed on the hashable ``ParamSet`` cannot fake a gain.

The operations call the program through the ``kmln`` package namespace, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools

import numpy as np

import kmln

#: Summary line of ``kmln verify`` with the default configuration; seeds
#: 0, 1 and 7 were spot-checked to give this split.
VERIFY_SUMMARY = "summary checks=170 pass=146 discrepancy=24 fail=0"

#: A small ``kmln verify`` that touches every stage of the CLI path once;
#: the cold call of the verify-cli set-up.
VERIFY_COLD_ARGS = ("verify", "--family", "K-1", "--variant", "00",
                    "--samples", "1", "--rank-instances", "1")

_COMPOSE_REL_TOL = 1e-9
_NEAR_MISS_REL = 1e-6
_REAL_SHARE = 0.2
_LOG10_SCALE = (-12.0, 12.0)


def random_matrix(rng) -> np.ndarray:
    """Dense complex 4x4 matrix, entries uniform over the unit square."""
    return rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))


def _cvec4(rng, real):
    if real:
        cv = rng.uniform(-1, 1, 4).astype(complex)
        cv[2] = 1j * rng.uniform(-1, 1)
        return cv
    return rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)


def family_member(rng, tag, real=False) -> np.ndarray:
    """Matrix of a member of family ``tag`` with generic constants."""
    fam = kmln.descriptor(tag)
    constants = {}
    for name in fam.constants:
        mag = rng.uniform(0.5, 2.0)
        if real:
            constants[name] = complex(mag * rng.choice([-1.0, 1.0]))
        else:
            constants[name] = mag * np.exp(2j * np.pi * rng.uniform())
    base = {v: _cvec4(rng, real) for v in fam.bases}
    return kmln.assemble(kmln.construct(tag, constants, base))


def variant_member(rng, vid) -> np.ndarray:
    """Dense matrix with row i and column j zeroed: a member of variant ij."""
    g = random_matrix(rng)
    i, j = vid
    g[i, :] = 0
    g[:, j] = 0
    return g


class ComposeStream:
    """``core.compose(p, q)`` on distinct generic complex parameter sets."""

    name = "compose-stream"
    block = 100

    def inputs(self, rng):
        while True:
            p = kmln.disassemble(random_matrix(rng))
            q = kmln.disassemble(random_matrix(rng))
            yield (p, q), None

    def op(self, inp):
        p, q = inp
        return kmln.compose(p, q)

    def check(self, inp, expect, out) -> bool:
        p, q = inp
        dense = kmln.assemble(p) @ kmln.assemble(q)
        err = np.linalg.norm(kmln.assemble(out) - dense) / np.linalg.norm(dense)
        return bool(err <= _COMPOSE_REL_TOL)

    def cold_call(self, seed):
        (inp, _), = itertools.islice(self.inputs(np.random.default_rng(seed)), 1)
        return lambda: self.op(inp)


class ClassifyMix:
    """``classify(parse_document(text).matrix)`` on distinct JSON documents.

    Kinds repeat as family, variant, family, generic, near-miss.  Family
    members cycle through all 39 families, about a fifth of them real, and
    so, separately, do the complex members near-misses start from; variant
    members cycle through all 16 variants.  Every matrix is scaled by a
    factor log-uniform over 1e-12 to 1e12.  A near-miss is a complex family
    member plus a dense perturbation of relative size 1e-6.
    """

    name = "classify-mix"
    block = 20
    KINDS = ("family", "variant", "family", "generic", "near_miss")

    def inputs(self, rng):
        tags = itertools.cycle(kmln.FAMILY_TAGS)
        near_tags = itertools.cycle(kmln.FAMILY_TAGS)
        vids = itertools.cycle(kmln.VARIANT_IDS)
        for kind in itertools.cycle(self.KINDS):
            label = None
            if kind == "family":
                label = next(tags)
                g = family_member(rng, label, real=rng.uniform() < _REAL_SHARE)
            elif kind == "variant":
                label = next(vids)
                g = variant_member(rng, label)
            elif kind == "generic":
                g = random_matrix(rng)
            else:
                g = family_member(rng, next(near_tags))
                e = random_matrix(rng)
                g = g + _NEAR_MISS_REL * np.linalg.norm(g) / np.linalg.norm(e) * e
            g = g * 10.0 ** rng.uniform(*_LOG10_SCALE)
            yield kmln.format_document(matrix=g), (kind, label)

    def op(self, text):
        return kmln.classify(kmln.parse_document(text).matrix)

    def check(self, text, expect, report) -> bool:
        kind, label = expect
        if kind == "family":
            return label in report.family_tags
        if kind == "variant":
            return tuple(label) in report.variants
        return not report.families and report.rank == 4

    def cold_call(self, seed):
        (text, _), = itertools.islice(self.inputs(np.random.default_rng(seed)), 1)
        return lambda: self.op(text)


class VerifyCli:
    """A fresh ``kmln verify --seed <s>`` process (170 checks).

    run.py starts the process through child.py, which calls the entry point
    ``python -m kmln verify`` calls.  Only the seeds are inputs here.
    """

    name = "verify-cli"

    def inputs(self, rng):
        while True:
            yield int(rng.integers(0, 2**31)), VERIFY_SUMMARY

    def check(self, seed, expect, out) -> bool:
        returncode, stdout = out
        lines = stdout.splitlines()
        return returncode == 0 and bool(lines) and lines[-1] == expect

    def cold_call(self, seed):
        import kmln.cli

        args = list(VERIFY_COLD_ARGS) + ["--seed", str(seed)]
        return lambda: kmln.cli.main(args, standalone_mode=False)


WORKLOADS = {w.name: w for w in (ComposeStream(), ClassifyMix(), VerifyCli())}
