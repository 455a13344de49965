"""Variant preset resolution."""

import pytest

from cadent.baselines import canonical_variant, preset_names, resolve_preset
from cadent.student import (GuidanceParams, LearningParams, StudentConfig,
                            TrustParams)


def test_preset_names_complete():
    assert preset_names() == ("cadent", "ad", "pd", "no_transfer",
                              "no_trust_gate")


@pytest.mark.parametrize("raw,expected", [
    ("cadent", "cadent"),
    ("  CADENT ", "cadent"),
    ("none", "no_transfer"),
    ("ad_only", "ad"),
    ("pd_only", "pd"),
    ("AD-Only", "ad"),
    ("no-trust-gate", "no_trust_gate"),
])
def test_canonical_variant_aliases(raw, expected):
    assert canonical_variant(raw) == expected


def test_canonical_variant_rejects_unknown():
    with pytest.raises(ValueError, match="known"):
        canonical_variant("dqn")


def test_resolve_defaults():
    cfg = resolve_preset("cadent")
    assert cfg.variant == "cadent"
    assert cfg.guide == GuidanceParams(lambda_ad=1.0, lambda_pd=0.5)
    assert cfg.learn == LearningParams()
    assert cfg.trust == TrustParams()


def test_resolve_preserves_base_hyperparameters():
    # a preset only names the variant; train_student drops the weights the
    # variant does not use (test_student::test_preset_kernel_arguments)
    base = StudentConfig(learn=LearningParams(alpha=0.2, gamma=0.95),
                         trust=TrustParams(theta=0.9),
                         guide=GuidanceParams(lambda_ad=2.0, lambda_pd=0.25),
                         omega0=0.8)
    for name in preset_names():
        assert resolve_preset(name, base) == base.with_(variant=name)
    assert resolve_preset("ad-only", base).variant == "ad"


def test_resolve_is_idempotent():
    for name in preset_names():
        once = resolve_preset(name)
        again = resolve_preset(name, base=once)
        assert again == once


def test_presets_serialize_round_trip():
    for name in preset_names():
        cfg = resolve_preset(name)
        assert StudentConfig.from_json(cfg.to_json()) == cfg
