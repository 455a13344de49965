"""Named training variants: the full method, its ablations, and controls.

`student.VARIANTS` defines each variant as one row: whether the trust gate
is on, and which of the guidance weights the run keeps. `train_student`
applies that row, so a preset only names the variant: every other
hyperparameter of the base config, `omega0` included, stays as it is.
`StudentConfig` resolves a name by `canonical_variant`, which lives beside
the table in `student`; it is imported here, so `baselines` has it too.
"""

from __future__ import annotations

from .student import VARIANTS, StudentConfig, canonical_variant


def preset_names():
    return tuple(VARIANTS)


def resolve_preset(name, base=None):
    """`base` (default StudentConfig()) with its variant set to `name`."""
    base = base if base is not None else StudentConfig()
    return base.with_(variant=name)
