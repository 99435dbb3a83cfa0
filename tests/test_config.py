"""Experiment configuration: strict parsing, overrides, seed derivation."""

from __future__ import annotations

import dataclasses

import pytest

from seqguard.artifacts import dump_json_file, load_json_file
from seqguard.config import (
    _SECTIONS,
    ARMS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    derive_seed,
)


class TestDefaults:
    def test_empty_document_gives_defaults(self):
        config = config_from_dict({})
        assert config.arm == "C"
        assert config.sample_size == 3000
        assert config.train_fraction == 0.9
        assert config.drain.depth == 4
        assert config.drain.sim_threshold == 0.4
        assert config.window.window_length == 64
        assert config.window.stride == 64
        assert config.train.learning_rate == 2e-5
        assert config.train.loss == "focal"
        assert config.train.alpha == 0.25
        assert config.train.gamma == 2.0
        assert config.judge.enabled is False

    def test_arms_constant(self):
        assert ARMS == ("A", "B", "C")

    def test_to_dict_round_trips(self):
        config = config_from_dict({"seed": 7, "train": {"epochs": 3}})
        rebuilt = config_from_dict(config.to_dict())
        assert rebuilt == config


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"outdir": "x"})

    def test_unknown_section_key(self):
        with pytest.raises(ValueError, match="unknown config keys in train"):
            config_from_dict({"train": {"learn_rate": 0.1}})

    def test_type_error_names_the_field(self):
        with pytest.raises(ValueError, match="train.epochs must be an integer"):
            config_from_dict({"train": {"epochs": "three"}})

    def test_bool_rejected_for_numeric_field(self):
        with pytest.raises(ValueError, match="must be a number, got a boolean"):
            config_from_dict({"train": {"epochs": True}})

    def test_float_field_accepts_int(self):
        config = config_from_dict({"train": {"learning_rate": 1}})
        assert config.train.learning_rate == 1.0
        assert isinstance(config.train.learning_rate, float)

    def test_int_field_rejects_float(self):
        with pytest.raises(ValueError, match="must be an integer"):
            config_from_dict({"train": {"batch_size": 8.0}})

    def test_section_must_be_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            config_from_dict({"train": 3})

    def test_document_must_be_object(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            config_from_dict([1, 2])

    def test_bad_arm(self):
        with pytest.raises(ValueError, match="arm must be one of"):
            config_from_dict({"arm": "D"})

    def test_bad_train_fraction(self):
        with pytest.raises(ValueError, match="train_fraction"):
            config_from_dict({"train_fraction": 1.0})

    def test_negative_sample_size(self):
        with pytest.raises(ValueError, match="sample_size"):
            config_from_dict({"sample_size": -1})

    def test_optional_string_field(self):
        config = config_from_dict({"judge": {"cache_dir": None}})
        assert config.judge.cache_dir is None
        config = config_from_dict({"judge": {"cache_dir": "cache"}})
        assert config.judge.cache_dir == "cache"
        with pytest.raises(ValueError, match="judge.cache_dir"):
            config_from_dict({"judge": {"cache_dir": 3}})

    def test_bool_field_rejects_int(self):
        with pytest.raises(ValueError, match="judge.enabled must be true or false"):
            config_from_dict({"judge": {"enabled": 1}})


def _all_fields():
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            yield section, f.name
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in _SECTIONS:
            yield None, f.name


@pytest.mark.parametrize("section,name", list(_all_fields()))
def test_every_field_is_type_checked(section, name):
    # A field whose declared type the loader does not check would pass any
    # value through to its section type.
    payload = {section: {name: object()}} if section else {name: object()}
    with pytest.raises(ValueError, match=rf"^{section or 'config'}\.{name} must be "):
        config_from_dict(payload)


class TestOverrides:
    def test_dotted_override(self):
        payload = apply_overrides({}, ["train.epochs=5"])
        assert payload == {"train": {"epochs": 5}}
        assert config_from_dict(payload).train.epochs == 5

    def test_top_level_override(self):
        payload = apply_overrides({"seed": 1}, ["seed=9", "arm=A"])
        assert payload["seed"] == 9
        assert payload["arm"] == "A"

    def test_json_scalars_coerced(self):
        payload = apply_overrides(
            {}, ["train.learning_rate=0.01", "judge.enabled=true", "judge.cache_dir=null"]
        )
        assert payload["train"]["learning_rate"] == 0.01
        assert payload["judge"]["enabled"] is True
        assert payload["judge"]["cache_dir"] is None

    def test_non_json_stays_string(self):
        payload = apply_overrides({}, ["logs=data/HDFS.log"])
        assert payload["logs"] == "data/HDFS.log"

    def test_original_untouched(self):
        base = {"train": {"epochs": 1}}
        apply_overrides(base, ["train.epochs=9"])
        assert base == {"train": {"epochs": 1}}

    def test_missing_equals_sign(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["train.epochs"])

    def test_descending_into_scalar(self):
        with pytest.raises(ValueError, match="non-object"):
            apply_overrides({"seed": 3}, ["seed.sub=1"])

    def test_override_of_bad_value_caught_at_build(self):
        payload = apply_overrides({}, ["train.epochs=oops"])
        with pytest.raises(ValueError, match="train.epochs must be an integer"):
            config_from_dict(payload)


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(0, "split") == derive_seed(0, "split")

    def test_derive_seed_separates_labels_and_roots(self):
        assert derive_seed(0, "split") != derive_seed(0, "sample")
        assert derive_seed(0, "split") != derive_seed(1, "split")

    def test_derive_seed_range(self):
        for root in range(20):
            value = derive_seed(root, "train")
            assert 0 <= value < 2**32

    def test_stage_seeds_cover_pipeline_stages(self):
        seeds = ExperimentConfig().stage_seeds()
        assert set(seeds) == {"sample", "split", "model_init", "pretrain", "train"}
        assert len(set(seeds.values())) == len(seeds)


class TestFiles:
    def test_dump_is_byte_stable(self, tmp_path):
        payload = {"b": 2, "a": {"z": 1, "y": [3, 2]}}
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        dump_json_file(str(first), payload)
        dump_json_file(str(second), load_json_file(str(first)))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")

    def test_dump_sorts_keys(self, tmp_path):
        path = tmp_path / "doc.json"
        dump_json_file(str(path), {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
