"""Corpus of netlists: every valid file survives a parse/print/parse round
trip, every valid circuit without field ports initializes consistently, and
every invalid file carries `#! expect-error <line> <substring>` annotations
that must match the diagnostics line-for-line."""

import pathlib

import numpy as np
import pytest

from fieldcircuit.integrators import consistent_init
from fieldcircuit.mna import (NetlistError, build_incidence, input_stack,
                              mna_system, parse_netlist, print_netlist)

_HERE = pathlib.Path(__file__).parent
VALID = sorted((_HERE / "netlists" / "valid").glob("*.cir"))
INVALID = sorted((_HERE / "netlists" / "invalid").glob("*.cir"))


def _expectations(text):
    """Annotations live behind `#!` so the parser never sees them."""
    out = []
    for raw in text.splitlines():
        if not raw.startswith("#!"):
            continue
        body = raw[2:].strip()
        assert body.startswith("expect-error "), raw
        line_s, _, substring = body[len("expect-error "):].partition(" ")
        out.append((int(line_s), substring))
    return out


def test_corpus_is_large_enough():
    assert len(VALID) >= 30
    assert len(INVALID) >= 20


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_valid_file_round_trips(path):
    net = parse_netlist(path.read_text(encoding="utf-8"), origin=path.name)
    assert net.cards
    printed = print_netlist(net)
    again = parse_netlist(printed, origin=path.name)
    assert again == net
    assert print_netlist(again) == printed


def _parsed(path):
    nl = parse_netlist(path.read_text(encoding="utf-8"), origin=path.name)
    return nl, build_incidence(nl)


# field-port netlists need conductor models to build a system
CIRCUITS = [p for p in VALID if not _parsed(p)[1].field_ports]


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_circuit_initializes_consistently(path):
    # the start the simulate command takes: zero given values, the rest
    # solved from the constraints
    nl, inc = _parsed(path)
    sys_m = mna_system(inc)
    z0 = consistent_init(sys_m, np.zeros(sys_m.n), input_stack(nl, inc))
    assert np.all(np.isfinite(z0))


@pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
def test_invalid_file_diagnostics(path):
    text = path.read_text(encoding="utf-8")
    expected = _expectations(text)
    assert expected, f"{path.name} has no expect-error annotations"
    with pytest.raises(NetlistError) as info:
        parse_netlist(text, origin=path.name)
    got = info.value.errors
    for line, substring in expected:
        matches = [e for e in got
                   if e.startswith(f"{path.name}:{line}:") and substring in e]
        assert matches, (f"{path.name}: expected line {line} to report "
                         f"{substring!r}, got {got}")
