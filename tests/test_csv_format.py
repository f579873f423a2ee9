"""The array formatter behind every CSV writes exactly what ``format(v, ".17g")`` writes."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mfgplan import cli
from mfgplan.cli import parse_config, read_field_csv, read_series_csv, run, write_field_csv

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


def reference(values) -> bytes:
    """One ``format`` call per value, the formatter's contract."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in values).encode()


def assert_formats_like_format(values) -> None:
    # small arrays are formatted value by value; the block path is checked at every size
    values = np.asarray(values, dtype=float)
    assert cli._format_rows(values) == reference(values)
    assert cli._format_block(values.ravel(), values.shape[1]) == reference(values)


def reference_field_csv(path, ts, xs, field) -> None:
    """The row-loop writer the vectorised one replaced: one format string per row."""
    line = ",".join(["%.17g"] * (field.shape[1] + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(format(float(x), ".17g") for x in xs) + "\n")
        for t, row in zip(ts.tolist(), field):
            fh.write(line % (t, *row.tolist()))


@pytest.fixture
def fallbacks(monkeypatch):
    """Values the formatter hands to ``format``, recorded (the fast path never calls it)."""
    seen = []

    def recording(value, spec):
        seen.append(value)
        return format(value, spec)

    monkeypatch.setattr(cli, "format", recording, raising=False)
    return seen


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_formatter_matches_format_on_any_array(values):
    assert_formats_like_format(values)


def test_formatter_matches_format_on_random_bit_patterns():
    rng = np.random.default_rng(20211)
    assert_formats_like_format(rng.integers(0, 2**64, 10**5, dtype=np.uint64)
                               .view(np.float64).reshape(-1, 50))
    # random mantissas at every exponent of the fast path's range and around it
    biased = rng.integers(1023 - 960, 1023 + 960, 10**5, dtype=np.uint64)
    sign = rng.integers(0, 2, 10**5, dtype=np.uint64)
    bits = sign << 63 | biased << 52 | rng.integers(0, 2**52, 10**5, dtype=np.uint64)
    assert_formats_like_format(bits.view(np.float64).reshape(-1, 100))


def test_exact_ties_go_to_format(fallbacks):
    # 17 significant digits end in an exact half: round-half-even needs the exact value
    for v, k in ((1 + 2**-17, 0), (43 * 2**-22, -5)):
        scaled = Fraction(v) * Fraction(10) ** (16 - k)
        assert scaled - (scaled.numerator // scaled.denominator) == Fraction(1, 2)
        assert_formats_like_format([[v, -v]])
        assert fallbacks[-2:] == [v, -v]


def test_near_ties_go_to_format(fallbacks):
    # x = m 2^-77 lies in [1e-8, 1e-7), so r = x 10^24 = m 5^24 2^-53: choosing m 5^24 =
    # 2^52 + t (mod 2^53) puts r within |t| 2^-53 of a half, inside the error bound
    inverse = pow(5**24, -1, 2**53)
    mantissas = [(2**52 + t) * inverse % 2**53 for t in range(-40, 40) if t]
    near = [m * 2.0**-77 for m in mantissas if 2**52 <= m]
    assert len(near) >= 10
    for v in near:
        scaled = Fraction(v) * 10**24
        assert 0 < abs(scaled - scaled.numerator // scaled.denominator - Fraction(1, 2)) < 1e-14
    assert_formats_like_format([near])
    assert fallbacks == near


def test_powers_of_ten_and_their_neighbours(fallbacks):
    # carries into the next decade (the double nearest 1e-14 lies below it), D = 1e16
    # at exact powers, and log10 rounding up across a decade just below them
    powers = np.array([float(f"1e{n}") for n in range(-300, 301)])
    assert_formats_like_format(np.stack([np.nextafter(powers, 0), powers,
                                         np.nextafter(powers, np.inf)]))
    # the decimal exponent is re-estimated, not handed to format(); 1e15 - 2^-3 is the
    # exact tie 1e17 - 12.5 at 17 digits
    below = np.nextafter(powers[302:323], 0)
    assert np.floor(np.log10(below)).tolist() == list(range(2, 23))
    assert set(below.tolist()) & set(fallbacks) == {1e15 - 2**-3}


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_digits_do_not_depend_on_the_exponent_estimate(monkeypatch, shift):
    # an estimate one decade low retries or, at exact powers, carries D = 1e17 into the
    # next decade; one decade high retries
    values = [[float(f"1e{n}") * c for n in range(-30, 31)] for c in (1.0, 1.5, 9.5)]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert_formats_like_format(values)


@pytest.mark.parametrize("v", [
    9.9999999999999991e-05, 1e-4, 1e16, 99999999999999999.0, 1e17, 1.0, 0.1, 123456.0,
    cli._FAST[0], cli._FAST[1], np.nextafter(cli._FAST[0], 0), np.nextafter(cli._FAST[1], np.inf),
    5e-324, 1.7976931348623157e308, 0.0, np.inf, np.nan,
])
def test_named_values(v):
    assert_formats_like_format([[v, -v]])


@pytest.mark.parametrize("shape", [(1, 1), (1, 9000), (9000, 1), (257, 257)])
def test_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    assert_formats_like_format(rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape))


def test_fast_path_certifies_a_converged_planning_field(tmp_path, fallbacks):
    doc = {
        "schema_version": 1, "mode": "planning", "output_dir": str(tmp_path),
        "grid": {"nt": 65, "nx": 64},
        "planning": {"m0": {"type": "sine", "amplitude": 0.2}, "order": 1,
                     "mT": {"type": "cosine", "amplitude": 0.1, "mode": 2},
                     "potential": {"type": "cosine", "amplitude": 0.2}},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run(parse_config(path), quiet=True) == 0
    phi = read_field_csv(tmp_path / "solution_phi.csv")[2]
    fallbacks.clear()
    assert cli._format_rows(phi) == reference(phi)
    assert len(fallbacks) <= phi.size // 100


@pytest.mark.parametrize("bad", ["field", "ts", "xs"])
def test_write_field_csv_rejects_mismatched_shapes(tmp_path, bad):
    ts, xs, field = np.zeros(3), np.zeros(4), np.zeros((3, 4))
    if bad == "field":
        field, shapes = np.zeros(12), r"\(12,\).*\(3,\).*\(4,\)"
    elif bad == "ts":
        ts, shapes = np.zeros(2), r"\(3, 4\).*\(2,\).*\(4,\)"
    else:
        xs, shapes = np.zeros(5), r"\(3, 4\).*\(3,\).*\(5,\)"
    with pytest.raises(ValueError, match=shapes):
        write_field_csv(tmp_path / "field.csv", ts, xs, field)
    assert not (tmp_path / "field.csv").exists()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_write_the_row_loop_bytes(tmp_path, config):
    cfg = parse_config(config)
    cfg.output_dir = tmp_path / "out"
    assert run(cfg, quiet=True) == 0
    written = sorted(cfg.output_dir.glob("solution_*.csv"))
    assert (cfg.mode == "validate") == (not written)
    for path in written:
        again = tmp_path / path.name
        if path.name == "solution_q.csv":
            ts, q = read_series_csv(path)
            again.write_bytes(b"t,q\n" + reference(np.column_stack([ts, q])))
        else:
            reference_field_csv(again, *read_field_csv(path))
        assert again.read_bytes() == path.read_bytes(), path.name
