"""Arbitrary bytes into every reader of outside input: each may only fail
with its own typed error, never with a bare exception."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adamoge import checkpoint as ckpt
from adamoge import config as cfgmod
from adamoge import data
from adamoge.autodiff import ParameterStore
from adamoge.config import ConfigError
from adamoge.data import DataError

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def spliced(text: st.SearchStrategy) -> st.SearchStrategy:
    """UTF-8 text with a few arbitrary bytes inserted at an arbitrary point."""
    return st.tuples(text, st.binary(max_size=4), st.integers(0, 400)).map(
        lambda t: t[0].encode("utf-8")[: t[2]] + t[1] + t[0].encode("utf-8")[t[2]:]
    )


_config_value = st.one_of(
    st.text(max_size=8),
    st.integers(-3, 2100).map(str),
    st.sampled_from(["nan", "inf", "-1e999", "true", "no", "", "1,2", ",", "dog", "ratio"]),
)
_config_text = st.lists(
    st.tuples(st.sampled_from(sorted(cfgmod._SCHEMA)), _config_value), max_size=6
).map(lambda kv: "".join(f"{k} = {v}\n" for k, v in kv))


@FUZZ
@given(blob=st.one_of(st.binary(max_size=200), spliced(_config_text)))
def test_config_parse_and_validate_raise_only_config_error(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        cfgmod.validate(cfgmod.parse_file(str(path)))
    except ConfigError:
        pass


_stamp = st.one_of(
    st.sampled_from(["2020-01-01 00:00:00", "2020-01-01 01:00:00", "2020-01-02",
                     "2020-01-03T00:00+01:00", "x", ""]),
    st.text(max_size=6),
)
_cell = st.one_of(
    st.sampled_from(["1.0", "-0", "nan", "inf", "1e400", "1_0", "", '"2"']),
    st.text(max_size=5),
)
_csv_text = st.lists(
    st.tuples(_stamp, st.lists(_cell, min_size=1, max_size=3)), max_size=5
).map(lambda rows: "date,a,b\n" + "".join(",".join([s, *c]) + "\n" for s, c in rows))


@FUZZ
@given(blob=st.one_of(st.binary(max_size=200), spliced(_csv_text)))
def test_load_csv_raises_only_data_error(tmp_path, blob):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    try:
        table = data.load_csv(str(path))
    except DataError:
        return
    assert table.values.shape == (len(table.timestamps), len(table.names))
    assert np.isfinite(table.values).all()


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory) -> bytes:
    store = ParameterStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    store.add("s", np.array(1.5))
    path = tmp_path_factory.mktemp("ckpt") / "m.bin"
    ckpt.save(str(path), store, "fp")
    return path.read_bytes()


@FUZZ
@given(
    choice=st.integers(0, 2),
    noise=st.binary(max_size=120),
    at=st.integers(0, 100),
)
def test_checkpoint_load_raises_only_checkpoint_error(tmp_path, valid_checkpoint,
                                                      choice, noise, at):
    blob = [
        noise,  # arbitrary bytes
        ckpt.MAGIC + noise,  # past the magic check
        # a field of a valid checkpoint overwritten
        valid_checkpoint[:at] + noise[:8] + valid_checkpoint[at + len(noise[:8]):],
    ][choice]
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob)
    try:
        ckpt.load(str(path))
    except ckpt.CheckpointError:
        pass
