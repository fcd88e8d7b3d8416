"""Smoke test of the narrative scripts under demos/: each runs end to end at a
reduced size and writes its outputs into a temporary directory."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# per demo, the module constants that shrink its run
SIZES = {
    "apt_windows": {},
    "deterministic_vs_stochastic": {"T_END": 10.0, "COUNT": 3},
    "nesterov_oscillator": {"T_END": 10.0},
    "rate_sweep": {"T_END": 20.0, "COUNT": 3},
    "smd_vs_samd": {"T_END": 20.0, "COUNT": 3},
}


def run_demo(name, out, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for key, value in {"OUT": out, **SIZES[name]}.items():
        assert hasattr(module, key), key
        monkeypatch.setattr(module, key, value)
    module.main()


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(SIZES)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_demo_runs(name, tmp_path, monkeypatch):
    out = tmp_path / name
    run_demo(name, out, monkeypatch)
    assert any(out.iterdir())


def test_stochastic_demo_csvs_carry_b_and_its_envelope(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_demo("deterministic_vs_stochastic", out, monkeypatch)
    for label in ("averaged", "plain"):
        lines = (out / f"{label}_stochastic.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert rows[0]["b"] == rows[0]["envelope"] == ""
        assert all(float(row["b"]) > 0.0 and float(row["envelope"]) > 0.0
                   for row in rows[1:])
