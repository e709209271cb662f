import os

import numpy as np
import pytest

from adamoge import checkpoint as ckpt
from adamoge import config as cfgmod
from adamoge.autodiff import ParameterStore
from adamoge.config import ConfigError, RunConfig


class TestConfig:
    def test_defaults_exist_for_every_key(self):
        cfg = RunConfig()
        text = cfgmod.render(cfg)
        for key in cfgmod._SCHEMA:
            assert f"{key} = " in text

    def test_parse_roundtrip(self, tmp_path):
        cfg = RunConfig()
        cfg.model.e_max = 9
        cfg.train.base_lr = 5e-4
        cfg.model.adaptive_k = False
        path = tmp_path / "a.cfg"
        path.write_text(cfgmod.render(cfg))
        back = cfgmod.parse_file(str(path))
        assert back.model.e_max == 9
        assert back.train.base_lr == 5e-4
        assert back.model.adaptive_k is False
        assert cfgmod.fingerprint(back) == cfgmod.fingerprint(cfg)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("model.expert_count = 7\n")
        with pytest.raises(ConfigError, match="model.expert_count"):
            cfgmod.parse_file(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nmodel.e_max = 5  # inline\n")
        cfg = cfgmod.parse_file(str(path))
        assert cfg.model.e_max == 5

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="model.e_max"):
            cfgmod.apply_overrides(RunConfig(), ["model.e_max=seven"])
        with pytest.raises(ConfigError, match="filter.mode"):
            cfgmod.apply_overrides(RunConfig(), ["model.filter.mode=boxcar"])
        with pytest.raises(ConfigError, match="key=value"):
            cfgmod.apply_overrides(RunConfig(), ["model.e_max"])

    def test_grid_list_parsing(self):
        cfg = cfgmod.apply_overrides(RunConfig(), ["train.grid.e_max=5,7,9"])
        assert cfg.train.grid_e_max == (5, 7, 9)

    def test_fingerprint_sensitivity(self):
        base = cfgmod.fingerprint(RunConfig())
        horizon = cfgmod.apply_overrides(RunConfig(), ["data.horizon=192"])
        outdir = cfgmod.apply_overrides(RunConfig(), ["output.dir=elsewhere"])
        assert cfgmod.fingerprint(horizon) != base
        assert cfgmod.fingerprint(outdir) == base  # plumbing only


class TestCheckpoint:
    def make_store(self):
        rng = np.random.default_rng(0)
        store = ParameterStore()
        store.add("w", rng.standard_normal((3, 4)))
        store.add("b", rng.standard_normal(5))
        store.add("scalar", np.array(2.5))
        return store

    def test_roundtrip_bit_exact(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "m.bin")
        ckpt.save(path, store, "fp123")
        fp, entries = ckpt.load(path)
        assert fp == "fp123"
        assert list(entries) == ["w", "b", "scalar"]
        for p in store:
            assert entries[p.name].tobytes() == p.value.tobytes()
            assert entries[p.name].shape == p.value.shape

    def test_load_into_restores_values(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "m.bin")
        ckpt.save(path, store, "fp")
        originals = store.state_dict()
        for p in store:
            p.value[...] = 0.0
        ckpt.load_into(path, store, "fp")
        for name, arr in originals.items():
            assert store[name].value.tobytes() == arr.tobytes()

    def test_fingerprint_mismatch_refused_unless_overridden(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "m.bin")
        ckpt.save(path, store, "fp-a")
        with pytest.raises(ckpt.CheckpointError, match="fingerprint"):
            ckpt.load_into(path, store, "fp-b")
        ckpt.load_into(path, store, "fp-b", allow_mismatch=True)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.bin"
        ckpt.save(str(path), self.make_store(), "fp")
        before = path.read_bytes()
        broken = self.make_store()
        broken.add("\ud800", np.zeros(2))  # a lone surrogate has no UTF-8 form
        with pytest.raises(UnicodeEncodeError):
            ckpt.save(str(path), broken, "fp2")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.bin"]

    def test_atomic_open_failure_midway(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(RuntimeError):
            with ckpt.atomic_open(str(path)) as fh:
                fh.write("{")
                raise RuntimeError("midway")
        assert os.listdir(tmp_path) == []
        path.write_text('{"mse": 1.0}\n')
        with pytest.raises(RuntimeError):
            with ckpt.atomic_open(str(path)) as fh:
                fh.write('{"mse": ')
                raise RuntimeError("midway")
        assert path.read_bytes() == b'{"mse": 1.0}\n'
        assert os.listdir(tmp_path) == ["report.json"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ckpt.CheckpointError, match="magic"):
            ckpt.load(str(path))

    def test_truncated_rejected(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "m.bin"
        ckpt.save(str(path), store, "fp")
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ckpt.CheckpointError):
                ckpt.load(str(path))

    @pytest.mark.parametrize("field", ["name_byte", "fingerprint_length", "dim_overflow"])
    def test_corrupt_field_rejected(self, tmp_path, field):
        store = self.make_store()
        path = tmp_path / "m.bin"
        ckpt.save(str(path), store, "fp")
        blob = bytearray(path.read_bytes())
        fp_len_at = len(ckpt.MAGIC)
        first_name_at = fp_len_at + 4 + len("fp") + 4 + 4  # entry "w", rank 2
        if field == "name_byte":
            blob[first_name_at] = 0xFF
        elif field == "fingerprint_length":
            blob[fp_len_at : fp_len_at + 4] = b"\xff\xff\xff\xff"
        else:  # 2**62 * 4 wraps a 64-bit product to zero
            dims_at = first_name_at + 1 + 4
            blob[dims_at : dims_at + 8] = (2**62).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(str(path))

    def test_model_mismatch_rejected(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "m.bin")
        ckpt.save(path, store, "fp")
        other = ParameterStore()
        other.add("w", np.zeros((3, 4)))
        with pytest.raises(ckpt.CheckpointError, match="does not match"):
            ckpt.load_into(path, other, "fp")
        reshaped = ParameterStore()
        reshaped.add("w", np.zeros((3, 4)))
        reshaped.add("b", np.zeros(6))
        reshaped.add("scalar", np.array(0.0))
        with pytest.raises(ckpt.CheckpointError, match="does not match"):
            ckpt.load_into(path, reshaped, "fp")
