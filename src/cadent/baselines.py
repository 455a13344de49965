"""Named training variants: the full method, its ablations, and controls.

A preset rewrites a base StudentConfig into one variant's exact
configuration in a single step, as `student.VARIANTS` defines it. Resolution
is idempotent and enforces each variant's invariants (e.g. the
strategic-only ablation zeroes the tactical weight, the gate-ablated control
pins its fixed weight to 0.5).
"""

from __future__ import annotations

from .student import (VARIANT_ALIASES, VARIANTS, GuidanceParams,
                      StudentConfig, uses_teacher)


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


def resolve_preset(name, base=None, omega0=None):
    """Variant configuration derived from a base config.

    `omega0` only applies to the fixed-trust family; passing it elsewhere is
    an error so typos do not silently vanish.
    """
    name = canonical_variant(name)
    base = base if base is not None else StudentConfig()
    gated, strategic, tactical, pinned = VARIANTS[name]
    if omega0 is not None:
        if gated or not uses_teacher(name):
            raise ValueError(f"omega0 is only meaningful for the fixed-trust "
                             f"family, not {name!r}")
        if pinned is not None and omega0 != pinned:
            raise ValueError(f"{name} pins omega0 = {pinned}; use "
                             f"fixed_trust for other values")
    omega = pinned if pinned is not None else (
        base.omega0 if omega0 is None else float(omega0))
    guide = GuidanceParams(
        lambda_ad=base.guide.lambda_ad if strategic else 0.0,
        lambda_pd=base.guide.lambda_pd if tactical else 0.0)
    return base.with_(variant=name, guide=guide, omega0=omega)
