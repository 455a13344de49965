"""Named training variants: the full method, its ablations, and controls.

`student.VARIANTS` defines each variant as one row: whether the trust gate
is on, and which of the guidance weights the run keeps. `train_student`
applies that row, so a preset only names the variant: every other
hyperparameter of the base config, `omega0` included, stays as it is.
"""

from __future__ import annotations

from .student import VARIANT_ALIASES, VARIANTS, StudentConfig


def preset_names():
    return tuple(VARIANTS)


def canonical_variant(name):
    """Resolve user-facing aliases to canonical preset names."""
    name = name.strip().lower().replace("-", "_")
    name = VARIANT_ALIASES.get(name, name)
    if name not in preset_names():
        raise ValueError(f"unknown variant {name!r}; known: "
                         f"{sorted(preset_names())} (aliases: "
                         f"{sorted(VARIANT_ALIASES)})")
    return name


def resolve_preset(name, base=None):
    """`base` (default StudentConfig()) with its variant set to `name`."""
    base = base if base is not None else StudentConfig()
    return base.with_(variant=canonical_variant(name))
