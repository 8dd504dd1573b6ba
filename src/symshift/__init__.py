"""Effective theory of one-dimensional shift spaces.

Shifts of finite type and sofic shifts over Z, their edge-shift and
higher-block presentations, periodic-point censuses, and decision
procedures for surjectivity, injectivity and pre-injectivity of local maps
(sliding block codes), including Garden-of-Eden pattern search.
"""

from .core import (
    Alphabet,
    PeriodicCensus,
    PeriodicConfig,
    SftSpec,
    Word,
    config_distance,
    cyclic_factors,
    enumerate_locally_allowed,
    is_locally_allowed,
    load_sft,
    normalize_periodic,
    parse_sft,
    periodization_allowed,
)
from .errors import SymshiftError
from .graphs import (
    LabeledGraph,
    dfa_language_equal,
    dfa_language_subset,
    essential_form,
    format_presentation,
    has_biinfinite_path,
    load_presentation,
    parse_presentation,
    save_presentation,
    scc_decomposition,
)
from .localmaps import (
    ImagePresentation,
    LocalRule,
    and_rule,
    apply_to_periodic,
    build_image_presentation,
    compose_rules,
    constant_rule,
    enumerate_rules,
    find_goe_pattern,
    identity_rule,
    is_injective,
    is_preinjective,
    is_surjective,
    load_rule,
    parse_rule,
    rule_from_function,
    shift_rule,
    surjunctivity_audit,
    xor_rule,
)
from .shifts import (
    build_higher_block,
    enumerate_periodic,
    is_empty,
    is_irreducible,
    is_mixing,
    language_member,
    pasting_check,
    periodic_census,
    periodic_density,
    presentation,
    sofic_equal,
)

__version__ = "0.1.0"
