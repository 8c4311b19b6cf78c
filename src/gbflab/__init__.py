"""gbflab: exact decision engine for generalized bent functions Z_2^n -> Z_m.

Exact cyclotomic-integer arithmetic, Walsh spectra, explicit constructions,
a battery of nonexistence criteria with machine-checkable reports, and an
exhaustive enumeration oracle.

Importing the package imports every module but not numpy, which loads at
the first use of the table layer (gbflab._lazy).
"""

from .cyclotomic import CycInt, cyclotomic_poly, reduction_rows, zeta_pow
from .numtheory import (class_number, compose_forms, cornacchia, euler_phi,
                        factorize, form_log, form_order, form_pow, jacobi,
                        mult_order_2, odd_part, reduce_form, semigroup_member,
                        semiprimitive, sqrt_mod, v2)
from .gbf import (FunctionTable, GbfType, construct_boolean_bent,
                  construct_even_even, construct_mod4_from_bent, direct_sum,
                  first_flat_violation, is_gbf, lift_modulus, table, walsh,
                  walsh_matrix)
from .criteria import (CriterionReport, Verdict, crit_lam_leung,
                       crit_p3_x_p5, crit_p7, crit_p7_x_p35,
                       crit_semiprimitive, decide, revalidate_report,
                       rule_exists, summarize_report)
from .oracle import OracleResult, enumerate_gbfs

__version__ = "0.1.0"

__all__ = [
    "CycInt", "cyclotomic_poly", "reduction_rows", "zeta_pow",
    "class_number", "compose_forms", "cornacchia", "euler_phi", "factorize",
    "form_log", "form_order", "form_pow", "jacobi", "mult_order_2",
    "odd_part", "reduce_form", "semigroup_member", "semiprimitive",
    "sqrt_mod", "v2",
    "FunctionTable", "GbfType", "construct_boolean_bent",
    "construct_even_even", "construct_mod4_from_bent", "direct_sum",
    "first_flat_violation", "is_gbf", "lift_modulus", "table", "walsh",
    "walsh_matrix",
    "CriterionReport", "Verdict", "crit_lam_leung", "crit_p3_x_p5",
    "crit_p7", "crit_p7_x_p35", "crit_semiprimitive", "decide",
    "revalidate_report", "rule_exists", "summarize_report",
    "OracleResult", "enumerate_gbfs",
]
