"""Exact-arithmetic tools for cyclotomic BMW algebra parameter data:
admissibility criteria, omega-sequence generation, semi-admissibility
detection, Brauer-diagram spanning counts, and the rationality
classification for affine parameters."""

from .fields import QQ, BinaryField, FieldElement, PrimeField, RationalField
from .mpoly import MPoly
from .univar import PoleAtInfinityError, Poly, RatFunc, Series, SplitError
from .symfun import (char_poly_coeffs, elem_sym, eta, eta_poly, eta_values,
                     half_q, power_sum, schur_q, schur_q_series, universal_H)
from .omega import (OmegaSeq, ParamSet, ParameterError, RXFunctions,
                    degenerate_params, nondegenerate_params,
                    omega_negative, rx_functions, verify_pm_identity,
                    wminus_ratfunc, wplus_ratfunc)
from .adm_degenerate import (check_recursion, check_relations,
                             check_u_admissible)
from .adm_nondegenerate import rui_xu_check, wilcox_yu_check
from .semiadm import (ConstraintError, Detection, construct_example, detect,
                      rank_formula)
from .diagrams import (BrauerDiagram, BrauerFactorization, CellDatum,
                       IndexedSpanningElement, RegularMonomial, b_prime,
                       compose, count_ideal_spanning, count_regular,
                       double_factorial_odd, enumerate_diagrams,
                       enumerate_ideal_spanning, enumerate_regular,
                       extend_cell_datum, factorize)
from .rationality import (Char2Recovery, ClassifyError, FitError,
                          RationalityClassification, RecoveryError,
                          RecurrenceFit, affine_classify, char2_recover,
                          fit_recurrence, weak_admissibility_check)
from .report import AdmissibilityReport, Witness

__version__ = "0.1.0"
