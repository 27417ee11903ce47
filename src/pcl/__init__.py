"""Partial concept classes on finite domains: dimensions, learners, disambiguation."""

from .core import (
    ONE,
    STAR,
    ZERO,
    ContractViolation,
    FiniteDistribution,
    LabeledSample,
    PartialConcept,
    PartialConceptClass,
    TotalConceptClass,
    concept,
    concept_class,
    finite_distribution,
    is_realizable,
    labeled_sample,
    total_class,
    uniform_on,
)
from .dimensions import (
    littlestone_dimension,
    multiclass_dimensions,
    shattering_strength,
    threshold_dimension,
    vc_dimension,
)

__version__ = "0.1.0"
