"""Exact computation of Smith groups, critical groups, characteristic ideals
over Z[t], and the algebraic co-rank of simple graphs, with classifiers for
the small-invariant-factor graph families and a miner for minimal forbidden
induced subgraphs.

Each name of __all__ loads its module on first use, so `import charideals`
runs none of them and a command loads only what it reads.  The name
`classify` is the function, whichever of it and its module loads first."""

import sys as _sys

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOME = {name: module for module, names in (
    ("catalog", "FAMILY_F FORBIDDEN_S4 lookup"),
    ("classify", "ClassificationReport CrossCheckResult classify cross_check is_C_leq "
                 "is_K_leq_regular is_S_leq"),
    ("graph_ideals", "CharIdealProfile algebraic_corank all_k_minors_in_ideal "
                     "char_ideal_profile characteristic_ideal multipartite_closed_form"),
    ("graphs", "BlowupSpec Graph Graph6Error adjacency_matrix blowup laplacian_matrix "
               "parse_edge_list parse_graph6 to_graph6"),
    ("intlinalg", "ConsistencyError InvariantFactors delta_sequence gcd_of_k_minors "
                  "invariant_factors_from_deltas snf_diagonal"),
    ("isomorphism", "canonical_form find_induced is_isomorphic"),
    ("mining", "MiningResult MiningTask enumerate_connected mine"),
    ("zpoly", "ZPoly"),
    ("ztideal", "GroebnerBuilder IdealZt"),
) for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(_sys)):
    def __setattr__(self, name, value):
        # the import system binds each submodule it loads to the package's
        # attribute of that name; for classify that would hide the function
        if name == "classify" and value is _sys.modules.get(f"{__name__}.classify"):
            value = value.classify
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
