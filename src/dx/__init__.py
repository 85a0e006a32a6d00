"""Data exchange engine.

Represents schema mappings given by source-to-target dependencies with
first-order antecedents (optionally using the order on constants),
computes canonical and core universal solutions, rewrites any mapping
into an equivalent one whose canonical solution is already the core,
and compiles mappings to SQL so cores drop out of plain queries.
"""

from dx.chase import (
    eval_interpretation,
    naive_chase,
    restricted_chase,
    to_term_interpretation,
    TermInterpretation,
)
from dx.certain import certain_answers, eliminate, eliminate_mapping, unfold
from dx.evaluator import eval_formula, ground_answers
# No name here shadows a submodule: the rewriting is dx.laconify.laconify.
from dx.laconify import (
    BlockType,
    generate_block_types,
    side_condition,
)
from dx.lang import (
    Formula,
    SchemaMapping,
    TGD,
    decompose,
    format_formula,
    format_mapping,
)
from dx.model import (
    Const,
    DxError,
    Fact,
    FreshNull,
    Instance,
    MappingError,
    ParseError,
    Schema,
    SkolemNull,
    blocks,
    compute_core,
    format_facts,
    instances_isomorphic,
    is_core,
    parse_facts,
)
from dx.parser import parse_formula, parse_mapping
from dx.verify import (
    Bounds,
    check_cq_equivalent,
    check_disjunctive_preservation,
    check_laconic,
    random_source_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BlockType",
    "Bounds",
    "Const",
    "DxError",
    "Fact",
    "Formula",
    "FreshNull",
    "Instance",
    "MappingError",
    "ParseError",
    "Schema",
    "SchemaMapping",
    "SkolemNull",
    "TGD",
    "TermInterpretation",
    "blocks",
    "certain_answers",
    "check_cq_equivalent",
    "check_disjunctive_preservation",
    "check_laconic",
    "compute_core",
    "decompose",
    "eliminate",
    "eliminate_mapping",
    "eval_formula",
    "eval_interpretation",
    "format_facts",
    "format_formula",
    "format_mapping",
    "generate_block_types",
    "ground_answers",
    "instances_isomorphic",
    "is_core",
    "naive_chase",
    "parse_facts",
    "parse_formula",
    "parse_mapping",
    "random_source_instance",
    "restricted_chase",
    "side_condition",
    "to_term_interpretation",
    "unfold",
]
