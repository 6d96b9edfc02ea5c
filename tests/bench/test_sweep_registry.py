"""The sweep registry: every SweepSpec runs, validates, round-trips, and
keeps its CLI surface; degenerate inputs fail before any point runs."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from repro.bench.spec import SweepInputError, run_sweep, sweep_specs
from repro.cli import build_parser, main

SPECS = sweep_specs()

#: a small, fast invocation of every registered sweep
TINY_ARGV = {
    "cachesweep": ["--tables", "4", "--rows", "512", "--dim", "8", "--batch", "64",
                   "--pooling", "2", "--alphas", "1.1", "--capacities", "0.1",
                   "--batches", "1"],
    "faultsweep": ["--tables", "4", "--rows", "512", "--dim", "8", "--batch", "64",
                   "--pooling", "2", "--gpus", "2", "--severities", "0.0", "0.7",
                   "--backends", "pgas", "--requests", "8"],
    "servesweep": ["--preset", "tiny", "--requests", "16"],
    "compsweep": ["--preset", "tiny", "--batches", "1", "--codecs", "fp32", "int8",
                  "--error-rows", "64"],
    "chaossweep": ["--preset", "tiny", "--batches", "2", "--backends", "pgas"],
    "skewsweep": ["--preset", "tiny", "--batches", "4", "--backends", "pgas",
                  "pgas+reshard", "--skews", "1.05"],
    "hiersweep": ["--preset", "tiny", "--bases", "pgas", "--nodes", "2",
                  "--gpus-per-node", "2", "--message-bytes", "256", "--batches", "1"],
    "critpath": ["--preset", "tiny", "--scale", "0.25", "--batches", "1"],
    "metrics": ["--preset", "tiny", "--no-series"],
}

#: every sweep subcommand's option strings, as they were before the
#: sweeps became SweepSpec data — the registry must add none and drop none
OPTION_STRINGS = {
    "cachesweep": ["--alphas", "--base", "--batch", "--batches", "--capacities",
                   "--dim", "--gpus", "--policy", "--pooling", "--rows", "--seed",
                   "--tables"],
    "chaossweep": ["--backends", "--batches", "--failures", "--gpus", "--k",
                   "--output", "--placement", "--preset", "--recovery-share",
                   "--scale", "--seed"],
    "compsweep": ["--backends", "--batch-sizes", "--batches", "--codecs",
                  "--error-rows", "--gpus", "--output", "--preset", "--scale",
                  "--seed"],
    "critpath": ["--backends", "--batches", "--gate", "--gate-abs-ns", "--gate-rel",
                 "--gpus", "--output", "--preset", "--scale", "--seed"],
    "faultsweep": ["--backends", "--batch", "--deadline-ms", "--dim",
                   "--emb-deadline-ms", "--gpus", "--hedge-ms", "--pooling", "--qps",
                   "--queue-limit", "--requests", "--rows", "--seed", "--severities",
                   "--tables"],
    "hiersweep": ["--bases", "--batches", "--gpus-per-node", "--message-bytes",
                  "--nodes", "--output", "--preset", "--scale", "--seed"],
    "metrics": ["--backends", "--batches", "--bins", "--gpus", "--no-series",
                "--output", "--preset", "--scale", "--seed", "--series"],
    "servesweep": ["--backends", "--deadline-ms", "--gpus", "--k", "--max-batch",
                   "--output", "--policies", "--preset", "--qps", "--requests",
                   "--seed", "--window-ms"],
    "skewsweep": ["--backends", "--batches", "--gpus", "--migration-share",
                  "--output", "--preset", "--scale", "--seed", "--skews",
                  "--threshold"],
}


def _subparser(name: str) -> argparse.ArgumentParser:
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[name]


def _parse(name: str, argv=()) -> argparse.Namespace:
    return build_parser().parse_args([name, *argv])


def test_registry_covers_every_sweep():
    assert set(SPECS) == set(TINY_ARGV) == set(OPTION_STRINGS)


@pytest.mark.parametrize("name", sorted(OPTION_STRINGS))
def test_option_strings_unchanged(name):
    parser = _subparser(name)
    strings = sorted(
        s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")
    )
    assert strings == OPTION_STRINGS[name]


@pytest.mark.parametrize("name", sorted(TINY_ARGV))
def test_tiny_run_validates_and_round_trips(name, tmp_path):
    spec = SPECS[name]
    run = run_sweep(spec, _parse(name, TINY_ARGV[name]))
    assert len(run.points) >= 1
    text = run.render()
    assert text.startswith("[") and len(text.splitlines()) >= 3
    first = run.points[0]
    assert run.point(*(getattr(first, c) for c in spec.coords)) is first
    if spec.artifact is None:
        return
    path = tmp_path / spec.artifact.file
    run.write_json(str(path))
    data = json.loads(path.read_text())
    spec.validate(data)
    assert data == json.loads(json.dumps(run.as_dict()))
    assert list(data) == sorted(data)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_library_accepts_only_run_arguments(name):
    spec = SPECS[name]
    for arg in spec.all_args:
        if arg not in spec.args:
            with pytest.raises(TypeError, match="unknown parameter"):
                spec.sweep(**{arg.name: arg.default})


def test_gate_options_are_cli_only():
    names = {arg.name for arg in SPECS["critpath"].cli_args}
    assert names == {"gate", "gate_rel", "gate_abs_ns"}


def _degenerate_cases():
    for name, spec in sorted(SPECS.items()):
        for arg in spec.args:
            listed = arg.nargs in ("+", "*")
            if listed:
                yield name, arg.name, []
            if arg.min is not None:
                yield name, arg.name, [arg.min - 1] if listed else arg.min - 1


@pytest.mark.parametrize("name,dest,value", list(_degenerate_cases()))
def test_degenerate_input_rejected_before_any_point(name, dest, value):
    def never(args):
        raise AssertionError("a point ran on degenerate input")

    spec = dataclasses.replace(SPECS[name], run=never)
    args = _parse(name)
    setattr(args, dest, value)
    with pytest.raises(SweepInputError):
        run_sweep(spec, args)


@pytest.mark.parametrize("argv", [
    ["compsweep", "--batches", "0", "--output", ""],
    ["hiersweep", "--nodes", "0", "--output", ""],
    ["hiersweep", "--gpus-per-node", "0", "--output", ""],
    ["metrics", "--preset", "tiny", "--batches", "0", "--output", ""],
])
def test_cli_reports_degenerate_input_as_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be >= 1" in captured.err
    assert captured.out == ""
