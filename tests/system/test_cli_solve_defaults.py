"""The CLI's solve defaults are HeatProblem's and CgConfig's, and the README states them."""

import re
from pathlib import Path

import pytest

from heatcg.cgsolver import CgConfig
from heatcg.cli import build_parser
from heatcg.heat1d import HeatProblem

README = Path(__file__).resolve().parents[2] / "README.md"

PROBLEM_OPTIONS = {
    "cells": HeatProblem.number_of_cells,
    "gamma": HeatProblem.gamma,
    "length": HeatProblem.domain_length,
    "t_left": HeatProblem.boundary_left,
    "t_right": HeatProblem.boundary_right,
}
SOLVER_OPTIONS = {"max_iters": CgConfig.max_iterations, "tol": CgConfig.tolerance}


def test_every_solve_default_is_a_field_default():
    for command in ("solve", "verify"):
        args = vars(build_parser().parse_args([command]))
        for name, default in {**PROBLEM_OPTIONS, **SOLVER_OPTIONS}.items():
            assert args[name] == default and type(args[name]) is type(default), (command, name)


def test_the_readme_states_the_problem_defaults_of_its_flags():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Options: ((?:`--[a-z-]+`,?\s*)+)describe\s+the problem\s+\(defaults: ([^)]*)\)", text)
    assert match, "the README's Options sentence has moved"
    flags = [flag[2:].replace("-", "_") for flag in re.findall(r"--[a-z-]+", match.group(1))]
    assert sorted(flags) == sorted(PROBLEM_OPTIONS)
    assert match.group(2) == ", ".join(str(PROBLEM_OPTIONS[flag]) for flag in flags)


def test_the_readme_states_the_iteration_cap_default():
    caps = re.findall(r"default `--max-iters (\d+)`", README.read_text(encoding="utf-8"))
    assert caps == [str(CgConfig.max_iterations)]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_help_states_each_field_default(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in {**PROBLEM_OPTIONS, **SOLVER_OPTIONS}.values():
        assert f"(default {default})" in text, default
