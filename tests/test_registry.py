"""One rule picks the reducer: ``reduce --method auto``, ``--method irka``
and ``irka_reduce(method=None)`` all run ``reducers.default_method``,
every ``--method`` choice names a ``reducers.REDUCERS`` entry, and a
reducer named for another index kind than the model's is an error line.
A mixed container is reduced as the index-2 view its checks return."""

import importlib
import pkgutil

import numpy as np
import pytest

import phmor
from phmor import PHDAESystem, cli, containers, partition_index1
from phmor.benchmarks import (
    MassSpringSpec,
    mass_spring_chain,
    mass_spring_chain_b2,
    mixed_chain,
    random_ph_index1,
)
from phmor.irka import IRKAConfig, irka_reduce
from phmor.linalg import LinAlgContractError
from phmor.reducers import REDUCERS, default_method

# The --method choices of `reduce` and `sweep`, in the order the CLI lists
# them: every REDUCERS name, directly and inside IRKA.
METHOD_CHOICES = [
    "auto", "index1-blockdiag", "index1-shifted", "index2",
    "irka", "irka-index1-blockdiag", "irka-index1-shifted", "irka-index2",
]


def _index1_b2_zero():
    """Index-1 model whose algebraic equations carry no input (B2 = P2 = 0)."""
    sys = random_ph_index1(8, 3, 1, seed=2).parent
    B = sys.B.copy()
    B[8:] = 0.0
    return partition_index1(
        PHDAESystem(E=sys.E, J=sys.J, R=sys.R, B=B, P=np.zeros_like(sys.P),
                    S=sys.S, N=sys.N), 8)


PARTITIONS = {
    "index1": (lambda: random_ph_index1(8, 3, 1, seed=2), "index1-shifted"),
    "index1-b2-zero": (_index1_b2_zero, "index1-shifted"),
    "index2": (lambda: mass_spring_chain(MassSpringSpec(k=4)), "index2"),
    "index2-b2": (lambda: mass_spring_chain_b2(MassSpringSpec(k=4)), "index2"),
    "mixed": (lambda: mixed_chain(MassSpringSpec(k=4)), "index2"),
}


def _save(part, path):
    containers.save_phdae(path, part.parent, extra={"index": part.index_kind, "n1": part.n1})
    return str(path)


class _Picked(Exception):
    """Raised by a recording reducer: stops the command once it has picked."""


@pytest.fixture
def picked(monkeypatch):
    """Names of the registry entries called; each call stops the caller."""
    names = []
    for name in REDUCERS:
        def record(part, data, name=name):
            names.append(name)
            raise _Picked
        monkeypatch.setitem(REDUCERS, name, record)
    return names


@pytest.mark.parametrize("kind", PARTITIONS)
def test_auto_irka_and_irka_reduce_pick_the_default(kind, picked, tmp_path):
    build, expected = PARTITIONS[kind]
    part = build()
    assert default_method(part) == expected
    model_dir = _save(part, tmp_path / "model")
    for method in ("auto", "irka"):
        with pytest.raises(_Picked):
            cli.main(["reduce", model_dir, "--method", method, "--r", "2",
                      "--out", str(tmp_path / method)])
    with pytest.raises(_Picked):
        irka_reduce(part, IRKAConfig(r=2))
    assert picked == [expected] * 3


def test_shifted_default_on_b2_zero_is_a_valid_order_r_congruence():
    # the shift P0 - D vanishes, so the shifted reducer is a plain congruence
    part = _index1_b2_zero()
    assert part.b2_zero
    data = phmor.InterpolationData.log_spaced(3, part.parent.m)
    model = REDUCERS[default_method(part)](part, data)
    assert model.order == 3
    assert model.ph_valid
    assert np.array_equal(model.polynomial.P0, part.parent.S + part.parent.N)


def test_default_method_rejects_a_bare_system():
    with pytest.raises(LinAlgContractError):
        default_method(mass_spring_chain(MassSpringSpec(k=3)).parent)


def _method_choices(verb):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[verb]
    return next(a for a in sub._actions if a.dest == "method").choices


# The index kind (a partition's ``index_kind``) each reducer reduces.
REDUCER_KINDS = {"index1-shifted": "1", "index1-blockdiag": "1", "index2": "2"}


def _named_reducer(method):
    """The REDUCERS entry a --method choice names; None for auto and irka."""
    name = method.removeprefix("irka").removeprefix("-")
    return {"": None, "auto": None}.get(name, name)


@pytest.mark.parametrize("verb", ["reduce", "sweep"])
def test_method_choices_unchanged_and_registered(verb):
    choices = _method_choices(verb)
    assert list(choices) == METHOD_CHOICES
    assert sorted(REDUCER_KINDS) == sorted(REDUCERS)
    for kind, (build, _) in PARTITIONS.items():
        part = build()
        for method in choices:
            named = _named_reducer(method)
            if named is not None and REDUCER_KINDS[named] != part.index_kind:
                with pytest.raises(LinAlgContractError, match="does not fit"):
                    cli._parse_method(method, part)
                continue
            name, irka = cli._parse_method(method, part)
            assert name in REDUCERS, (kind, method)
            assert name == (named or default_method(part))
            assert irka == method.startswith("irka")


def test_registry_name_writes_the_auto_row(tmp_path):
    # a mixed container is reduced by the entry auto runs on its index-2
    # view, and the saved model records that entry's model name
    model_dir = _save(mixed_chain(MassSpringSpec(k=4)), tmp_path / "model")
    rows = []
    for method in ("auto", "index2"):
        out = tmp_path / method
        assert cli.main(["reduce", model_dir, "--method", method, "--r", "2",
                         "--freq-grid", "1e-4:1e4:20", "--out", str(out)]) == 0
        assert containers.load_reduced(out).method == "index2-galerkin"
        rows.append((out / "errors.csv").read_text())
    assert rows[0] == rows[1]


@pytest.mark.parametrize("verb", ["reduce", "sweep"])
@pytest.mark.parametrize("kind", PARTITIONS)
def test_mismatched_reducer_is_an_error_line(verb, kind, tmp_path, capsys):
    # every reducer named for another index kind, directly and inside IRKA
    part = PARTITIONS[kind][0]()
    model_dir = _save(part, tmp_path / "model")
    mismatched = [m for m in METHOD_CHOICES if _named_reducer(m) is not None
                  and REDUCER_KINDS[_named_reducer(m)] != part.index_kind]
    assert len(mismatched) >= 2
    order = ["--r", "2"] if verb == "reduce" else ["--r-sweep", "2"]
    for method in mismatched:
        out = tmp_path / method
        assert cli.main([verb, model_dir, "--method", method, *order,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{verb}]: --method {method}: reducer "), err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("module", [
    name for _, name, _ in pkgutil.iter_modules(phmor.__path__, "phmor.")])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
