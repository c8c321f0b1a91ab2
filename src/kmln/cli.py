"""Command line interface.

Subcommands: gen, classify, compose, rank, verify.  Documents move through
stdin/stdout (or --output / file arguments) in the JSON format of
kmln.documents, so the commands pipe into each other.

Exit codes: 0 success, 1 verification failures, 2 malformed input or
unknown names, 3 constant errors (missing, or zero where a rule inverts).
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from kmln.classify import classify
from kmln.core import assemble, compose, numeric_rank
from kmln.documents import (
    DocumentError,
    format_document,
    parse_document,
)
from kmln.families import (
    FAMILIES,
    MissingConstantError,
    UnknownTagError,
    ZeroConstantError,
    descriptor,
    instance_params,
    sample_constants,
    sample_instance,
)
from kmln.harness import SuiteConfig, run_suite
from kmln.variants import parse_variant, sample_variant, variant_name

__all__ = ["cli", "main"]


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (MissingConstantError, ZeroConstantError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)
        except (DocumentError, UnknownTagError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)

    return wrapper


def _read_text(source: str) -> str:
    if source == "-":
        return click.get_text_stream("stdin").read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise DocumentError(f"{source}: {exc.strerror or exc}") from None


def _write_text(target: str, text: str):
    if target == "-":
        click.echo(text, nl=False)
    else:
        Path(target).write_text(text)


def _parse_consts(items):
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"constant option {item!r} must look like NAME=VALUE")
        try:
            out[name] = complex(value.strip())
        except ValueError:
            raise ValueError(
                f"constant {name}: {value.strip()!r} is not a complex number"
            ) from None
    return out


def _fmt_const(value) -> str:
    if value is None:
        return "indeterminate"
    return repr(complex(value))


def _is_variant_name(text: str) -> bool:
    return len(text) == 2 and text.isdigit()


@click.group()
@click.version_option(package_name="kmln")
def cli():
    """Four-vector parameterization of 4x4 matrices: generate, classify,
    compose and verify the degenerate multiplicative families."""


@cli.command()
@click.argument("tag")
@click.option("-c", "--const", "consts", multiple=True, metavar="NAME=VALUE",
              help="Fix a family constant instead of sampling it.")
@click.option("--seed", default=0, show_default=True, help="RNG seed.")
@click.option("--real", is_flag=True, help="Sample a real member.")
@click.option("--output", default="-", show_default=True,
              help="Output path, - for stdout.")
@_guarded
def gen(tag, consts, seed, real, output):
    """Generate a random member of a family (e.g. K-5) or variant (e.g. 02)."""
    given = _parse_consts(consts)
    rng = np.random.default_rng(seed)
    name = tag.strip()
    if _is_variant_name(name):
        if given:
            raise ValueError("variants take no constants")
        vid = parse_variant(name)
        params = sample_variant(vid, rng, real)
        meta = {"tag": variant_name(vid), "seed": seed}
    else:
        fam = descriptor(name)
        constants = sample_constants(fam.tag, rng, real)
        constants.update(given)
        inst = sample_instance(fam.tag, rng, constants, real)
        params = instance_params(inst)
        meta = {"tag": fam.tag, "seed": seed}
        if constants:
            meta["constants"] = constants
    _write_text(output, format_document(params=params, meta=meta))


@cli.command(name="classify")
@click.argument("input", default="-")
@click.option("--tol", default=1e-9, show_default=True,
              help="Relative tolerance for every membership decision.")
@click.option("--output", default="-", show_default=True)
@_guarded
def classify_cmd(input, tol, output):
    """Classify a document: rank, reality, families, variants."""
    doc = parse_document(_read_text(input))
    report = classify(np.array(doc.matrix), tol)
    lines = [f"rank: {report.rank}", f"real: {'yes' if report.real else 'no'}"]
    if report.families:
        for mb in report.families:
            parts = [f"family {mb.tag}", f"residual={mb.residual:.3e}"]
            for cname in FAMILIES[mb.tag].constants:
                parts.append(f"{cname}={_fmt_const(mb.constants.get(cname))}")
            lines.append(" ".join(parts))
    else:
        lines.append("families: none")
    if report.variants:
        lines.append(
            "variants: " + " ".join(variant_name(v) for v in report.variants)
        )
    else:
        lines.append("variants: none")
    _write_text(output, "\n".join(lines) + "\n")


@cli.command(name="compose")
@click.argument("left")
@click.argument("right")
@click.option("--output", default="-", show_default=True)
@_guarded
def compose_cmd(left, right, output):
    """Multiply two documents (left times right) in parameter space."""
    p_left = parse_document(_read_text(left)).params
    p_right = parse_document(_read_text(right)).params
    product = compose(p_left, p_right)
    _write_text(
        output, format_document(params=product, matrix=assemble(product))
    )


@cli.command(name="rank")
@click.argument("input", default="-")
@click.option("--tol", default=1e-9, show_default=True,
              help="Relative singular value cutoff.")
@click.option("--output", default="-", show_default=True)
@_guarded
def rank_cmd(input, tol, output):
    """Numeric rank of a document's matrix."""
    doc = parse_document(_read_text(input))
    _write_text(output, f"rank: {numeric_rank(np.array(doc.matrix), tol)}\n")


@cli.command(name="verify")
@click.option("--seed", default=0, show_default=True)
@click.option("--samples", default=100, show_default=True,
              help="Random pairs per closure check.")
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--real", is_flag=True, help="Sample real members.")
@click.option("--family", "families", multiple=True, metavar="TAG",
              help="Check only these families (repeatable).")
@click.option("--variant", "variants", multiple=True, metavar="ID",
              help="Check only these variants (repeatable).")
@click.option("--rank-instances", default=20, show_default=True,
              help="Instances per rank check.")
@click.option("--strict", is_flag=True,
              help="Treat catalog-label discrepancies as failures.")
@click.option("--output", default="-", show_default=True)
@_guarded
def verify_cmd(seed, samples, tol, real, families, variants, rank_instances,
               strict, output):
    """Run the randomized verification suite and report findings."""
    cfg = SuiteConfig(
        seed=seed,
        samples=samples,
        tol=tol,
        real=real,
        families=tuple(families) or None,
        variants=tuple(variants) or None,
        rank_instances=rank_instances,
    )
    report = run_suite(cfg)
    _write_text(output, report.to_text())
    code = report.exit_code(strict)
    if code:
        raise SystemExit(code)


main = cli

if __name__ == "__main__":
    sys.exit(main())
