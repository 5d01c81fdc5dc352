"""Command-line interface.

Every option can also be set through an environment variable named
UBNIN_<COMMAND>_<OPTION>, e.g. UBNIN_COHORT_ITERATIONS=500. Exit codes:
0 success, 1 validation or malformed-input error, 2 degenerate-statistics
error, 3 internal error: a fault of the program, not of its input, reported
on one ``internal error:`` line.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import click

from . import __version__
from .codec import (
    decode,
    encode,
    from_record,
    parse_decimal_string,
    to_decimal_string,
    to_record,
)
from .errors import (
    DegenerateDesignError,
    MalformedCodeError,
    NotEstimableError,
    UndefinedMetricError,
    ValidationError,
)
from .graphs import format_binary_matrix, load_binary_matrix
from .pipeline import MIN_COHORT_SIZE, RunConfig, run_cohort, run_fingerprint

EXIT_VALIDATION = 1
EXIT_DEGENERATE = 2
EXIT_INTERNAL = 3


@click.group()
@click.version_option(__version__, prog_name="ubnin")
def cli():
    """Exact network codes and structural covariance network analytics."""


@cli.command("encode")
@click.option("--input", "input_path", required=True, help="Binary matrix CSV to encode.")
def cmd_encode(input_path):
    """Encode a 0/1 matrix CSV into its exact network code."""
    code = encode(load_binary_matrix(input_path))
    record = {"n": code.n, "value": to_decimal_string(code)} | to_record(code)
    click.echo(json.dumps(record))


@cli.command("decode")
@click.option("--input", "code_text", required=True,
              help="Code literal (decimal string or JSON record) or a file holding one.")
@click.option("--nodes", type=int, default=None,
              help="Node count of the encoded network (required for decimal literals).")
@click.option("--out", "out_path", default=None, help="Write the matrix CSV here instead of stdout.")
def cmd_decode(code_text, nodes, out_path):
    """Reconstruct the 0/1 matrix CSV encoded by a network code."""
    text = code_text
    path = Path(code_text)
    try:
        is_file = path.is_file()
    except OSError:  # a code literal longer than any file name
        is_file = False
    if is_file:
        text = path.read_text(encoding="utf-8-sig").strip()
    if text.lstrip().startswith("{"):
        code = from_record(text)
        if nodes is not None and nodes != code.n:
            raise MalformedCodeError(f"--nodes {nodes} contradicts record n={code.n}")
    else:
        if nodes is None:
            raise ValidationError("--nodes is required when decoding a decimal literal")
        code = parse_decimal_string(text, nodes)
    matrix = format_binary_matrix(decode(code))
    if out_path:
        Path(out_path).write_text(matrix, encoding="utf-8")
    else:
        click.echo(matrix, nl=False)


def _config_options(fn):
    decorators = [
        click.option("--input", "input_path", required=True, help="Subjects CSV."),
        click.option("--demographics", default=None,
                     help="Separate demographics CSV joined on subject id."),
        click.option("--residualize", default=None,
                     help="Covariate to regress out of every region volume: gender or "
                          "group as one dummy per level, age or a clinical field as one "
                          "slope per region. A clinical field needs a value for every "
                          "subject, so HC subjects without clinical scores rule it out."),
        click.option("--out-dir", required=True, help="Directory for output files."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def parse_threshold_spec(text: str) -> float:
    """Parse a --threshold value, 'sparsity:<f>', into its keep fraction <f>."""
    mode, _, fraction = text.partition(":")
    if mode == "consistency":
        raise ValidationError("the consistency threshold spellings were removed: use "
                              "sparsity:<f>, which thresholds each subject the same way")
    if mode != "sparsity":
        raise ValidationError(f"threshold mode must be 'sparsity', got {mode!r}")
    try:
        return float(fraction)
    except ValueError:
        raise ValidationError(f"invalid threshold fraction {fraction!r}; "
                              "expected sparsity:<f>, e.g. sparsity:0.3") from None


@cli.command("fingerprint")
@_config_options
@click.option("--threshold", default="sparsity:0.3", show_default=True,
              help="Binarization, sparsity:<f>: keep the fraction <f> of each "
                   "subject's strongest edges.")
def cmd_fingerprint(input_path, demographics, residualize, out_dir, threshold):
    """Encode each subject's similarity network; write the code registry."""
    config = RunConfig(
        input=input_path, out_dir=out_dir, demographics=demographics,
        threshold_fraction=parse_threshold_spec(threshold), residualize=residualize,
    )
    doc = run_fingerprint(config)
    for ids in doc["duplicates"]:
        click.echo(f"warning: duplicate code shared by subjects {', '.join(ids)}", err=True)
    click.echo(
        f"fingerprinted {doc['subjects']} subjects "
        f"({doc['distinct_codes']} distinct codes) -> {doc['registry_path']}"
    )


@cli.command("cohort")
@_config_options
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed for every stochastic stage.")
@click.option("--sweep", default="0.6:0.9:0.03", show_default=True,
              help="Sparsity sweep start:stop:step; a level is the fraction of possible "
                   "edges kept (the paper's levels may be the fraction removed).")
@click.option("--bins", default="32,42,52,62", show_default=True,
              help="Ascending age bin edges, comma separated.")
@click.option("--iterations", type=int, default=1000, show_default=True,
              help="Permutation iterations per cohort pair.")
@click.option("--anova", "anova_fields", default=None,
              help="Clinical columns to test, comma separated (default: all present).")
@click.option("--n-rand", type=int, default=100, show_default=True,
              help="Random references per small-world estimate (0 disables).")
@click.option("--swaps-per-edge", type=int, default=10, show_default=True,
              help="Rewiring attempts per edge for random references.")
def cmd_cohort(input_path, demographics, residualize, seed, out_dir, sweep, bins,
               iterations, anova_fields, n_rand, swaps_per_edge):
    """Age-binned metric sweep, permutation tests, and clinical ANOVA."""
    try:
        start, stop, step = (float(x) for x in sweep.split(":"))
    except ValueError:
        raise ValidationError(f"malformed sweep {sweep!r}; expected start:stop:step") from None
    try:
        edges = tuple(float(x) for x in bins.split(","))
    except ValueError:
        raise ValidationError(f"malformed bins {bins!r}; expected comma-separated numbers") from None
    fields = None
    if anova_fields is not None:
        fields = tuple(x.strip() for x in anova_fields.split(",") if x.strip())
    config = RunConfig(
        input=input_path, out_dir=out_dir, demographics=demographics,
        residualize=residualize, seed=seed,
        sweep_start=start, sweep_stop=stop, sweep_step=step,
        bin_edges=edges, iterations=iterations, anova_fields=fields,
        n_rand=n_rand, swaps_per_edge=swaps_per_edge,
    )
    doc = run_cohort(config)
    for warning in doc["warnings"]:
        click.echo(f"warning: {warning}", err=True)
    analyzed = sum(1 for c in doc["cohorts"] if c["n_subjects"] >= MIN_COHORT_SIZE)
    click.echo(
        f"analyzed {analyzed}/{len(doc['cohorts'])} cohorts over "
        f"{len(doc['sweep'])} sparsity levels -> {doc['out_dir']}"
    )


def main(argv=None) -> int:
    """Run the CLI, mapping package errors onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False, auto_envvar_prefix="UBNIN")
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return EXIT_VALIDATION
    except click.Abort:
        click.echo("aborted", err=True)
        return EXIT_VALIDATION
    except (ValidationError, MalformedCodeError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_VALIDATION
    except (DegenerateDesignError, UndefinedMetricError, NotEstimableError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DEGENERATE
    except Exception as exc:  # a fault of the program: name its type and where it was raised
        where = traceback.extract_tb(exc.__traceback__)[-1]
        click.echo(f"internal error: {type(exc).__name__} at "
                   f"{Path(where.filename).name}:{where.lineno}: {exc}", err=True)
        return EXIT_INTERNAL
    return 0


def entrypoint():
    sys.exit(main())
