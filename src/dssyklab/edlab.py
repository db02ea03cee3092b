"""Finite-N laboratory: Majorana operators, random-coupling Hamiltonians,
the constant diagonal defect, spectra and paired moment estimates.

Majorana operators are tensor products of Pauli matrices, kept in
symplectic form as an (x-mask, z-mask, phase) triple for phase * X^x Z^z,
which maps |b> to phase * (-1)^popcount(z & b) |b XOR x>.  Products are bit
operations.  The terms sharing an x-mask fill one permutation pattern of H,
and their entries there are a Walsh-Hadamard transform over z-masks, so a
Hamiltonian with thousands of interaction terms assembles as one batched
transform.  The layout pairs sigma_y/sigma_z factors behind a sigma_x
string:

    psi_1    = X X ... X
    psi_2j   = X^(n-j) Y I^(j-1)      (n = N/2 qubits)
    psi_2j+1 = X^(n-j) Z I^(j-1)

With this layout the products (-i) psi_{N-2l-1} psi_{N-2l} are adjacent
Z Z dominoes and (-i)^(N/2) psi_1 ... psi_N is Z on the first qubit, which
is exactly what makes the diagonal defect expressible as a Majorana sum.

Every single Majorana carries X or Y on qubit 1, so an even-p term flips
no top bit and commutes with the chirality.  H_random is therefore block
diagonal in the top qubit: two chirality blocks of size 2^(N/2-1), which
are assembled and diagonalized separately.  The defect theta D is the
identity times theta at k = 0 and lies inside the top-bit-0 block at
k >= 1, so (theta, k) alone fixes each block's shift: theta on the first
levels of block 0, and a constant on block 1, theta at k = 0 and zero
otherwise.  A block's spectrum under a shift that repeats, such as the
defect-free top-bit-1 block, is computed once per sample and handed out as
a plain sorted array; a caller that must know whether two spectra are the
same, like the phase scan, compares their values.  When N/2 is odd an
antiunitary symmetry maps one block onto the other (`_mirror_sign`), so
the top-bit-1 spectrum is read off the top-bit-0 one and the top-bit-1
block is never assembled.  A sample holds one copy of each block it
diagonalizes: every shift is added to the block in place and undone after
its diagonalization, so ED holds the blocks, the copy that `eigvalsh`
makes, and the few scratch arrays of one assembly chunk, each at most
256 KiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .qhermite import ConvergenceError

MAX_QUBITS = 12  # dimension cap 2^12
# The command line's cap on |theta|.  eigvalsh returns each level with an
# absolute error of order eps ||H|| ~ 2.2e-16 |theta|: at |theta| <= 1e6
# that is below 3e-10, far under the mean level spacing of H_0, whose
# spectrum is about 4 wide (1e-3 at the largest dimension, 2^12), while
# at 1e308 the unshifted levels carry no digit at all.
MAX_ABS_THETA = 1e6
# gap statistics: the fraction of the pooled spectrum trimmed from each end,
# and the share of the interior span a gap must exceed to count as a void
GAP_TRIM = 0.005
GAP_SPAN_FRACTION = 0.05


# ---------------------------------------------------------------------------
# Pauli-string machinery
# ---------------------------------------------------------------------------

def _pauli_product(strings) -> tuple[int, int, complex]:
    """Product of Pauli strings, left to right, by the symplectic rule
    (x1, z1, s1)(x2, z2, s2) = (x1^x2, z1^z2, s1 s2 (-1)^|z1 & x2|)."""
    x, z, phase = 0, 0, 1 + 0j
    for x2, z2, s2 in strings:
        phase *= s2 * (-1) ** (z & x2).bit_count()
        x ^= x2
        z ^= z2
    return x, z, phase


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(b) for every basis state b of n qubits."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


def _pauli_matrix(string: tuple[int, int, complex], n: int) -> np.ndarray:
    """Dense matrix of a Pauli string on n qubits:
    |b> maps to phase * (-1)^|z & b| |b ^ x>."""
    x, z, phase = string
    idx = np.arange(1 << n)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    out[idx ^ x, idx] = phase * _parity_signs(n)[z & idx]
    return out


@lru_cache(maxsize=8)
def _majorana_strings(N: int) -> list[tuple[int, int, complex]]:
    """(x-mask, z-mask, phase) of psi_1 .. psi_N in the layout above, with
    qubit 1 as the top bit of n = N/2: psi_1 = X^n, and for j = 1 .. n the
    Y or Z of psi_2j or psi_2j+1 sits on bit j - 1 below a run of X.  As
    phase * X^x Z^z with Y = i X Z:

        psi_1    = (2^n - 1,       0,       1)
        psi_2j   = (2^n - 2^(j-1), 2^(j-1), i)
        psi_2j+1 = (2^n - 2^j,     2^(j-1), 1)
    """
    _check_even_dim(N)
    top = 1 << (N // 2)
    strings = [(top - 1, 0, 1 + 0j)]
    for l in range(2, N + 1):
        j, odd = divmod(l, 2)
        low = 1 << (j - 1)
        strings.append((top - 2 * low, low, 1 + 0j) if odd else (top - low, low, 1j))
    return strings


def _check_even_dim(N: int):
    if N % 2 or N <= 0:
        raise ValueError("N must be a positive even integer")
    if N // 2 > MAX_QUBITS:
        raise ValueError(f"dimension cap exceeded: N/2 must stay at or below {MAX_QUBITS} qubits")


def majorana(l: int, N: int) -> np.ndarray:
    """Dense matrix of the l-th Majorana operator on 2^(N/2) states."""
    if not 1 <= l <= N:
        raise ValueError(f"Majorana index must satisfy 1 <= l <= N, got {l}")
    _check_even_dim(N)
    return _pauli_matrix(_majorana_strings(N)[l - 1], N // 2)


# ---------------------------------------------------------------------------
# model parameters and Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Run parameters: N Majoranas, degree-p interactions, defect strength
    theta on the first 2^(N/2-k) diagonal entries, seeded sampling."""

    N: int
    p: int = 4
    theta: float = 0.0
    k: int = 0
    seed: int = 0
    samples: int = 1

    def __post_init__(self):
        _check_even_dim(self.N)
        finite_size_weights(self.N, self.p, self.k)
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must satisfy 0 <= seed < 2^64")

    @property
    def dim(self) -> int:
        return 1 << (self.N // 2)

    @property
    def r(self) -> float:
        return 2.0 ** (-self.k)


def sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    """Counter-based per-sample stream: Philox keyed by the run seed, jumped
    to the sample index.  Streams are independent and order-insensitive."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(sample_index))


@lru_cache(maxsize=2)
def _term_structure(N: int, p: int):
    """The C(N,p) interaction terms i^(p(p-1)/2) psi_i1 ... psi_ip grouped
    by x-mask: (the G distinct x-masks, and for each term in combinations
    order its slot g * 2^(N/2) + z in a G x 2^(N/2) array and its phase)."""
    singles = _majorana_strings(N)
    prefactor = 1j ** (p * (p - 1) // 2)
    dim = 1 << (N // 2)
    groups: dict[int, int] = {}
    slots, phases = [], []
    for idx_set in combinations(range(N), p):
        x, z, phase = _pauli_product(singles[i] for i in idx_set)
        slots.append(groups.setdefault(x, len(groups)) * dim + z)
        phases.append(prefactor * phase)
    return np.array(list(groups)), np.array(slots), np.array(phases)


@lru_cache(maxsize=8)
def _sylvester(n: int) -> np.ndarray:
    """The 2^n x 2^n Sylvester-Hadamard matrix, entries (-1)^popcount(a & b)."""
    idx = np.arange(1 << n)
    return _parity_signs(n)[idx[:, None] & idx]


def _hadamard_rows(flat: np.ndarray, n: int, half: bool = False) -> np.ndarray:
    """The rows of a flattened G x 2^n array, each times the Sylvester matrix
    H_n = H_a (x) H_b with a = n // 2 high and b = n - a low bits: a row read
    as a 2^a x 2^b matrix V becomes H_a V H_b.  These per-row products are
    small enough that BLAS runs each on one thread, which was faster than
    one (G 2^a) x 2^b product and left the buffers of other BLAS threads
    untouched (a lower peak RSS).

    With `half`, only the first half of each output row (top bit 0) is
    computed: the top half of H_a's rows, or at a = 0, where the top bit
    lies in H_b, the left half of H_b's columns.
    """
    a, b = n // 2, n - n // 2
    g = flat.size >> n
    left, right = _sylvester(a), _sylvester(b)
    if half and a:
        left = left[: 1 << (a - 1)]
    elif half:
        right = right[:, : 1 << (b - 1)]
    return (left @ flat.reshape(g, 1 << a, 1 << b) @ right).reshape(g, -1)


def _h_blocks(params: ModelParams, rng: np.random.Generator, blocks: list[np.ndarray]):
    """One realization of the random p-body Hamiltonian as its two
    chirality blocks, written over `blocks`: the top-qubit-0 block, then,
    if `blocks` holds two half x half C-contiguous complex arrays, the
    top-qubit-1 block.  With one array only the top-qubit-0 block is
    assembled, from the same coupling draw.

    Couplings are i.i.d. normal with variance 1/C(N,p), which normalizes
    the trace of H^2 to one.  The x-mask group of x fills the entries
    (b XOR x, b) with sum_t c_t phase_t (-1)^popcount(z_t & b): the
    Walsh-Hadamard transform of the group's weights spread over z-masks.
    The arrays are zeroed, then the groups are transformed and written a
    chunk at a time (`_write_groups`).  A chunk spreads over at most a
    quarter block and at most 256 KiB (2^15 doubles).  Freeing a chunk's
    scratch raises glibc's dynamic mmap threshold, so later chunks are
    served from the heap, whose pages stay resident: small chunks keep
    that residue small beside the blocks.  Each group's row is transformed
    on its own, so the chunking leaves every bit of the blocks unchanged.
    """
    N, p = params.N, params.p
    n_terms = math.comb(N, p)
    couplings = rng.standard_normal(n_terms) / math.sqrt(n_terms)
    xs, slots, phases = _term_structure(N, p)
    weights = couplings * phases
    for block in blocks:
        if not block.flags.c_contiguous:  # the writes go through a flat view
            raise ValueError("chirality blocks must be C-contiguous")
        block.fill(0)
    step = max(1, min(params.dim // 8, (1 << 15) // params.dim))  # groups per chunk
    for lo in range(0, len(xs), step):
        inside = (slots >= lo * params.dim) & (slots < (lo + step) * params.dim)
        _write_groups(params, blocks, xs[lo:lo + step], slots[inside] - lo * params.dim,
                      weights[inside])


def _write_groups(params: ModelParams, blocks: list[np.ndarray], xs: np.ndarray,
                  slots: np.ndarray, weights: np.ndarray):
    """Write the x-mask groups `xs` into `blocks`.  A term's slot is
    g * 2^(N/2) + z for its group's index g in `xs`, and its weight is
    c_t phase_t.  The real and imaginary parts of the weights go through
    the real transform separately, these groups in one batch, and only
    over the states of the blocks asked for.  Group x's row W_x fills the
    entries (b XOR x, b) of each block; as the blocks are Hermitian entry
    for entry, it is written along rows instead, block[b, b XOR x] =
    conj(W_x[b]), in one indexed assignment per block for all the groups.
    The scratch arrays are freed on return, before the next chunk
    allocates its own.
    """
    half = params.dim // 2
    spread = np.zeros(len(xs) * params.dim)
    spread[slots] = weights.real
    real = _hadamard_rows(spread, params.N // 2, half=len(blocks) == 1)
    spread[slots] = weights.imag
    imag = _hadamard_rows(spread, params.N // 2, half=len(blocks) == 1)
    del spread
    parts = []
    for lo in (0, half)[:len(blocks)]:
        # re - 1j im, formed in place: conj(re + 1j im), with its zeros signed alike
        part = np.multiply(1j, imag[:, lo:lo + half].T)
        parts.append(np.subtract(real[:, lo:lo + half].T, part, out=part))
    del real, imag
    rows = np.arange(half)[:, None]
    flat = rows ^ xs  # entry (b, b XOR x) of a block sits at b half + (b XOR x)
    flat += rows * half
    for block, part in zip(blocks, parts):
        block.reshape(-1)[flat] = part


def build_h_syk(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """One realization of the random p-body Hamiltonian as a dense matrix:
    the block-diagonal embedding of its two chirality blocks.  Hermitian
    by construction.

    Oracle for `_h_blocks`: tests compare this dense form with H rebuilt
    term by term from `majorana`.
    """
    half = params.dim // 2
    blocks = [np.empty((half, half), dtype=complex) for _ in range(2)]
    _h_blocks(params, rng, blocks)
    H = np.zeros((params.dim, params.dim), dtype=complex)
    H[:half, :half], H[half:, half:] = blocks
    return H


def build_dc(N: int, k: int) -> np.ndarray:
    """Diagonal defect: first 2^(N/2-k) entries one, the rest zero."""
    _check_even_dim(N)
    if not 0 <= k <= N // 2:
        raise ValueError("k must satisfy 0 <= k <= N/2")
    dim = 1 << (N // 2)
    diag = np.zeros(dim)
    diag[: dim >> k] = 1.0
    return np.diag(diag)


def _chirality(N: int) -> np.ndarray:
    """(-i)^(N/2) psi_1 ... psi_N as a matrix."""
    return (-1j) ** (N // 2) * _pauli_matrix(_pauli_product(_majorana_strings(N)), N // 2)


def _pert_sum(N: int, k: int) -> np.ndarray:
    """The defect rebuilt from its Majorana expansion: sum over domino
    subsets of {0..k-2} of (-i)^m (prod psi_{N-2l-1} psi_{N-2l}) (1 + chirality),
    divided by 2^k."""
    singles = _majorana_strings(N)
    dim = 1 << (N // 2)
    eye = np.eye(dim, dtype=complex)
    core = eye + _chirality(N)
    total = np.zeros((dim, dim), dtype=complex)
    for m in range(k):
        for subset in combinations(range(k - 1), m):
            term = core
            for l in subset:
                domino = _pauli_matrix(_pauli_product(singles[N - 2 * l - 2: N - 2 * l]), N // 2)
                term = domino @ term
            total += (-1j) ** m * term
    return total / 2 ** k


def _pert_display(N: int, k: int) -> np.ndarray:
    """The three printed special cases (k = 1, 2, 3), term by term."""
    dim = 1 << (N // 2)
    eye = np.eye(dim, dtype=complex)

    def prod_psi(upto: int) -> np.ndarray:
        return _pauli_matrix(_pauli_product(_majorana_strings(N)[:upto]), N // 2)

    psi = lambda l: majorana(l, N)
    if k == 1:
        return (eye + (-1j) ** (N // 2) * prod_psi(N)) / 2
    if k == 2:
        return (eye
                + (-1j) ** (N // 2) * prod_psi(N)
                + (-1j) ** ((N - 2) // 2) * prod_psi(N - 2)
                - 1j * psi(N - 1) @ psi(N)) / 4
    if k == 3:
        return (eye
                + (-1j) ** (N // 2) * prod_psi(N)
                + (-1j) ** ((N - 2) // 2) * prod_psi(N - 2)
                + (-1j) ** ((N - 4) // 2) * prod_psi(N - 4)
                - 1j * psi(N - 1) @ psi(N)
                - 1j * psi(N - 3) @ psi(N - 2)
                - psi(N - 3) @ psi(N - 2) @ psi(N - 1) @ psi(N)
                + (-1j) ** ((N - 2) // 2) * psi(N - 1) @ psi(N) @ prod_psi(N - 4)) / 8
    raise ValueError("printed displays exist for k in {1, 2, 3}")


def verify_dc_majorana_expansion(N: int, k: int) -> bool:
    """Check that the Majorana expansion of the defect reproduces the
    diagonal matrix exactly (entrywise below 1e-12).

    Both the general domino-subset sum and, for k <= 3, the printed
    special-case display are materialized and compared against build_dc.
    Raises with the first differing entry on mismatch.

    Oracle for `build_dc`: the defect's Majorana expansion.
    """
    if N > 10:
        raise ValueError("expansion check is meant for N <= 10")
    if not 1 <= k <= N // 2:
        raise ValueError("need 1 <= k <= N/2")
    target = build_dc(N, k).astype(complex)
    candidates = [("domino-subset sum", _pert_sum(N, k))]
    if k <= 3:
        candidates.append(("printed display", _pert_display(N, k)))
    for label, cand in candidates:
        delta = np.abs(cand - target)
        if delta.max() >= 1e-12:
            i, j = np.unravel_index(np.argmax(delta), delta.shape)
            raise ValueError(
                f"{label} mismatch at N={N}, k={k}: entry ({i},{j}) is "
                f"{cand[i, j]:.6g}, expected {target[i, j]:.6g}")
    return True


# ---------------------------------------------------------------------------
# sampling and paired moment estimates
# ---------------------------------------------------------------------------

def _mirror_sign(N: int, p: int) -> int:
    """sigma with spec(B1 + c) = sigma * spec(B0 + sigma * c) for every real
    constant c when N/2 is odd, or 0 when N/2 is even.

    For n = N/2 odd let S = X^x Z^z with x = sum over even j < n of 2^j,
    whose top bit n - 1 is even and so set, and z = 2^(n-1) - 1.  Then
    S conj(psi_l) S^dagger = psi_l for every Majorana, so S conj(H) S^dagger
    = sigma H with sigma = conj(i^(p(p-1)/2)) / i^(p(p-1)/2)
    = (-1)^(p(p-1)/2) for real couplings.  S flips the top qubit and maps
    block 0 onto block 1, which makes sigma * (B1 + c) unitarily equivalent
    to conj(B0 + sigma * c).
    """
    if N // 2 % 2 == 0:
        return 0
    return (-1) ** (p * (p - 1) // 2)


def _block_spectra(params: ModelParams, defects: list[tuple[float, int]]):
    """Eigenvalues of each chirality block of H_random + theta D, one sample
    after another: for sample s, drawn from `sample_rng(params.seed, s)`,
    yields [block-0 spectrum, block-1 spectrum] for each (theta, k) in
    `defects`.

    D has ones on its first 2^(N/2-k) levels, so block 0 is shifted by
    theta on its first half >> max(k - 1, 0) levels, and block 1 by the
    constant theta at k = 0 and by nothing at k >= 1.  Each sample has one
    memo of spectra, keyed (block, theta, count) with every zero shift
    keyed (block, 0.0, 0), so a shift that repeats, such as a defect-free
    block, is diagonalized once per sample.  With sigma =
    `_mirror_sign(N, p)` nonzero (N/2 odd), block 1's spectrum is
    sigma * spec(B0 + sigma c) for its constant shift c, taken from block
    0's: ascending when sigma = +1, descending when sigma = -1.  Block 1 is
    then never assembled; at N/2 even both blocks are.  Every spectrum is
    a plain array; whether two of them are equal is a question of value.

    Each block is held once, in one buffer that every sample of the call
    reuses, so a later sample writes into pages that are already mapped.
    A shift is diagonalized on the block itself: it is added to the first
    `count` diagonal entries, and after `eigvalsh` those entries are
    written back from a saved copy, so every shift sees the assembled
    block bit for bit and no other buffer is held.
    """
    sigma = _mirror_sign(params.N, params.p)
    half = params.dim // 2
    blocks = [np.zeros((half, half), dtype=complex) for _ in range(1 if sigma else 2)]
    eigs: dict[tuple[int, float, int], np.ndarray] = {}  # this sample's memo

    def spectrum(i: int, theta: float, count: int) -> np.ndarray:
        if not theta:
            theta, count = 0.0, 0
        if (i, theta, count) not in eigs:
            levels = blocks[i].reshape(-1)[: count * (half + 1): half + 1]  # a diagonal view
            saved = levels.copy()
            levels += theta
            eigs[i, theta, count] = np.linalg.eigvalsh(blocks[i])
            levels[...] = saved
        return eigs[i, theta, count]

    for s in range(params.samples):
        eigs.clear()
        _h_blocks(params, sample_rng(params.seed, s), blocks)
        pairs = []
        for theta, k in defects:
            c = theta if k == 0 else 0.0  # block 1's constant shift
            high = sigma * spectrum(0, sigma * c, half) if sigma else spectrum(1, c, half)
            pairs.append([spectrum(0, theta, half >> max(k - 1, 0)), high])
        yield pairs


def _spectrum(pair: list[np.ndarray]) -> np.ndarray:
    """Sorted eigenvalues of the whole matrix from its two block spectra."""
    return np.sort(np.concatenate(pair))


def sample_spectra(params: ModelParams) -> list[np.ndarray]:
    """Sorted eigenvalues of H = H_random + theta * D for each sample, one
    array of length dim per sample, in sample order.

    Deterministic given the seed: sample s always uses the same coupling
    stream regardless of how many samples are requested.
    """
    return [_spectrum(pair) for [pair] in _block_spectra(params, [(params.theta, params.k)])]


def paired_reduced_moments(params: ModelParams, max_n: int):
    """Matched-seed estimates of the reduced moments m_1..max_n.

    Each sample diagonalizes the same coupling realization with and without
    the defect (a chirality block the defect misses is diagonalized once
    and used on both sides); the pure-random trace moment is subtracted per
    sample (even orders only) before dividing by r, which cancels most of
    the sampling noise.  Returns (means, standard errors), both length max_n; a standard
    error needs at least two samples.
    """
    if params.samples < 2:
        raise ValueError("paired moments need samples >= 2 for a standard error")
    r = params.r
    defects = [(0.0, params.k), (params.theta, params.k)]
    per_sample = np.zeros((params.samples, max_n))
    # a huge theta overflows the moments to inf/nan; the caller reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for s, pairs in enumerate(_block_spectra(params, defects)):
            eig_syk, eig_full = map(_spectrum, pairs)
            for n in range(1, max_n + 1):
                full = np.mean(eig_full ** n)
                syk = np.mean(eig_syk ** n) if n % 2 == 0 else 0.0
                per_sample[s, n - 1] = (full - syk) / r
        means = per_sample.mean(axis=0)
        stderr = per_sample.std(axis=0, ddof=1) / math.sqrt(params.samples)
    return list(means), list(stderr)


# ---------------------------------------------------------------------------
# finite-size weights
# ---------------------------------------------------------------------------

def _sign_mean(a: int, p: int, N: int) -> Fraction:
    """E (-1)^|A & I| over a uniform p-subset I of N Majoranas, for a fixed
    a-subset A: the sign an even-p term picks up when it moves past the
    product of A's Majoranas."""
    if not 0 < p <= N:
        raise ValueError("need 0 < p <= N")
    total = sum((-1) ** c * math.comb(a, c) * math.comb(N - a, p - c)
                for c in range(min(a, p) + 1))
    return Fraction(total, math.comb(N, p))


def qn_finite(p: int, N: int) -> Fraction:
    """Finite-size crossing weight: the sign mean of two p-body terms.

    Tends to exp(-2 p^2 / N) in the double-scaling regime; equals (-1)^p
    at p = N.
    """
    return _sign_mean(p, p, N)


def qj_weight(p: int, N: int, j: int) -> Fraction:
    """Average exchange factor q_j between a p-body term and a 2j-Majorana
    block: the sign mean at |A| = 2j, so q_{p/2} = `qn_finite`."""
    if j < 0 or 2 * j > N:
        raise ValueError("need 0 <= 2j <= N")
    return _sign_mean(2 * j, p, N)


def qtilde_weight(p: int, N: int, k: int) -> Fraction:
    """Averaged wall weight for the defect at r = 2^-k.

    The defect splits into 2^(k-1) domino-subset components; a subset of
    size j carries exchange factor q_j, and there are C(k-1, j) of them:
    qtilde = sum_j C(k-1,j) q_j / 2^(k-1).  This reduces to the printed
    (q_0 + (k-1)(q_1+...+q_{k-2}) + q_{k-1})/2^(k-1) for every k <= 4.
    """
    if p % 2:
        raise ValueError("p must be even")
    if k < 1 or 2 * (k - 1) > N:
        raise ValueError("need k >= 1 and 2(k-1) <= N")
    total = sum(math.comb(k - 1, j) * qj_weight(p, N, j) for j in range(k))
    return total / 2 ** (k - 1)


def finite_size_weights(N: int, p: int, k: int) -> tuple[Fraction, Fraction]:
    """Check (N, p, k) and return the finite-size pair (q, qtilde).

    Needs N even with N >= 2, p even with 0 < p <= N, and 0 <= k <= N/2.
    At k = 0 the defect is theta times the identity, which no wall
    separates, so qtilde = 1.  The weights are exact at any N: the ED
    dimension cap is not checked here.
    """
    if p % 2 or not 0 < p <= N:
        raise ValueError("need 0 < p <= N with p even")
    if N % 2 or N < 2:
        raise ValueError("N must be a positive even integer")
    if not 0 <= k <= N // 2:
        raise ValueError("k must satisfy 0 <= k <= N/2")
    return qn_finite(p, N), qtilde_weight(p, N, k) if k else Fraction(1)


# ---------------------------------------------------------------------------
# phase scan
# ---------------------------------------------------------------------------

def spectral_gap_report(pooled: np.ndarray) -> dict:
    """Bimodality statistics of a pooled sorted spectrum.

    A GAP_TRIM fraction of points is dropped from each end (isolated extreme
    eigenvalues produce wide spacings that say nothing about the support),
    then the spectrum is flagged bimodal when the largest interior
    nearest-neighbor gap exceeds GAP_SPAN_FRACTION of the interior span:
    a macroscopic void, not a sparse-sampling artifact.  `gap` is the
    detected gap size, zero for unimodal spectra; the max/median spacing
    ratio is reported alongside for reference.  A statistic that is not a
    finite float (a defect so large that the ratio overflows) is a
    ConvergenceError.
    """
    pooled = np.sort(np.asarray(pooled, dtype=float))
    if len(pooled) < 10:
        raise ValueError("pooled spectrum too small for gap statistics")
    cut = int(len(pooled) * GAP_TRIM)
    interior = pooled[cut: len(pooled) - cut] if cut else pooled
    gaps = np.diff(interior)
    max_gap = float(gaps.max())
    median_gap = float(np.median(np.diff(pooled)))
    if median_gap == 0:
        raise ValueError("pooled spectrum too degenerate for gap statistics: "
                         "median spacing is zero")
    span = float(interior[-1] - interior[0])
    ratio = max_gap / median_gap
    if not all(map(math.isfinite, (max_gap, median_gap, ratio, span))):
        raise ConvergenceError("gap statistics overflow a float: "
                               f"max gap {max_gap:g} over median spacing {median_gap:g}")
    bimodal = max_gap > GAP_SPAN_FRACTION * span
    return {"max_gap": max_gap, "median_gap": median_gap, "gap_ratio": ratio,
            "bimodal": bimodal, "gap": max_gap if bimodal else 0.0}


def phase_scan(base: ModelParams, thetas: list[float]) -> list[dict]:
    """Gap statistics of pooled sampled spectra at each theta, at base.k.

    Each sample's chirality blocks are built once and shared by every
    theta; a block the defect misses is diagonalized once per sample.  A
    sample whose two block spectra are equal in value (N/2 odd, sigma = +1,
    both blocks under the same shift, or under shifts that round away) has
    each level pooled once: its exact double would make the median spacing
    zero.
    """
    for theta in thetas:
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
    pooled: list[list[np.ndarray]] = [[] for _ in thetas]
    for sample in _block_spectra(base, [(theta, base.k) for theta in thetas]):
        for (low, high), spectra in zip(sample, pooled):
            spectra += [low] if np.array_equal(low, high) else [low, high]
    return [{"theta": theta, "k": base.k, "samples": base.samples,
             **spectral_gap_report(np.concatenate(spectra))}
            for theta, spectra in zip(thetas, pooled)]


def histogram(pooled: np.ndarray, bins: int = 80):
    """(left_edge, count, density) rows for a pooled spectrum."""
    counts, edges = np.histogram(pooled, bins=bins)
    width = np.diff(edges)
    density = counts / (counts.sum() * width)
    return [(float(edges[i]), int(counts[i]), float(density[i])) for i in range(bins)]
