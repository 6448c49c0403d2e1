"""Exact linear algebra for products of Dehn-twist matrices.

The package implements, with exact arithmetic throughout:

* elementary twist matrices ``Q_i = I + D_i * omega`` over an intersection
  matrix and their run-length-encoded products (:mod:`penner.core`);
* the intersection graph and path combinatorics (:mod:`penner.graphs`);
* arithmetic modulo a prime, on residue lists (:mod:`penner.modp`);
* exact characteristic polynomials, ranks, Perron-Frobenius certification
  and high-precision leading eigenvalues (:mod:`penner.spectral`);
* factorization over the rationals and degree certification of the
  stretch factor (:mod:`penner.factor`);
* the degree-realization recipe, a scan over scales ``k * omega``
  (:mod:`penner.recipe`);
* limits of twist products along rays of intersection matrices
  (:mod:`penner.boundary`);
* a catalog of curve collections, augmentation moves, and degree-set
  formulas (:mod:`penner.catalog`);
* a command-line interface that parses arguments and prints answers
  (:mod:`penner.cli`).
"""

from .core import (
    IntersectionMatrix,
    TwistWord,
    generator,
    scale,
    twist_product,
    validate_omega,
)
from .errors import PennerError
from .graphs import (
    graph_of,
    is_bipartite,
    is_connected,
    is_contractible,
    word_supported,
)
from .spectral import (
    Poly,
    SpectralReport,
    char_poly_exact,
    complexity,
    is_reciprocal,
    pf_certify,
    pf_eigenvalue,
    rank_exact,
    spectral_report,
    structure_split,
    twist_charpoly,
)
from .factor import (
    Factorization,
    convergence_diagnostic,
    degree_of_pf_root,
    factor_monic,
)
from .boundary import (
    LimitMap,
    eigenvector_asymptotics,
    f_gamma,
    homotopy_invariance_check,
    p_gamma,
    q_arrow,
    ray_convergence_experiment,
)
from .catalog import (
    CatalogEntry,
    SurfaceSpec,
    catalog_get,
    catalog_ids,
    crosscap_augment,
    degree_set,
    degree_set_plus,
    puncture_augment,
    teich_dim,
)
from .recipe import RecipeResult, run_recipe
from . import cli  # noqa: F401  (``penner.cli`` loads with the package)

__version__ = "0.1.0"

__all__ = [
    "IntersectionMatrix", "TwistWord", "generator", "scale", "twist_product",
    "validate_omega", "PennerError",
    "graph_of", "is_bipartite", "is_connected", "is_contractible",
    "word_supported",
    "Poly", "SpectralReport", "char_poly_exact", "complexity",
    "is_reciprocal", "pf_certify", "pf_eigenvalue", "rank_exact",
    "spectral_report", "structure_split", "twist_charpoly",
    "Factorization", "convergence_diagnostic", "degree_of_pf_root",
    "factor_monic",
    "LimitMap", "eigenvector_asymptotics", "f_gamma",
    "homotopy_invariance_check", "p_gamma", "q_arrow",
    "ray_convergence_experiment",
    "CatalogEntry", "SurfaceSpec", "catalog_get", "catalog_ids",
    "crosscap_augment", "degree_set", "degree_set_plus", "puncture_augment",
    "teich_dim",
    "RecipeResult", "run_recipe",
]
