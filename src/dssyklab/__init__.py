"""dssyklab: exact moments, combinatorial oracles, finite-size spectra and
free-convolution baselines for the constant-perturbed double-scaled model."""

__version__ = "0.1.0"

from .qcore import MultiPoly, q_integer, q_factorial, q_binomial, q_multinomial
from .qhermite import (hermite_in_x, monomial_to_hermite, c_closed_form, linearization,
                       rt_moment, nu_q_density, conditional_kernel, QGaussianQuadrature,
                       ConvergenceError)
from .moments import (reduced_moment, reduced_moment_compositions, reduced_moment_gf,
                      full_moment, boolean_moment_c1, qtilde_limit_check,
                      b_continued_fraction, z_n, MomentTable)
from .mixed import Word, mixed_moment, word_sum_moment, free_convolution_moment
from .edlab import (ModelParams, majorana, build_h_syk, build_dc, verify_dc_majorana_expansion,
                    sample_spectra, paired_reduced_moments, qn_finite, qtilde_weight, phase_scan)
from .freeconv import (GridMeasure, ConvolutionResult, resolvent, semicircle_plus_atomic,
                       outlier_location, semicircle_resolvent)
