import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dssyklab import edlab as ed
from dssyklab import moments as mo
from dssyklab.qhermite import ConvergenceError


class TestMajoranaAlgebra:
    @pytest.mark.parametrize("N", [2, 4, 6, 8, 10])
    def test_clifford_relations(self, N):
        ops = [ed.majorana(l, N) for l in range(1, N + 1)]
        dim = 2 ** (N // 2)
        eye2 = 2 * np.eye(dim)
        for i in range(N):
            assert np.abs(ops[i] - ops[i].conj().T).max() < 1e-13
            for j in range(i, N):
                anti = ops[i] @ ops[j] + ops[j] @ ops[i]
                target = eye2 if i == j else 0.0
                assert np.abs(anti - target).max() < 1e-13

    def test_n2_pair_anticommutes(self):
        p1, p2 = ed.majorana(1, 2), ed.majorana(2, 2)
        assert np.abs(p1 @ p2 + p2 @ p1).max() < 1e-13

    @pytest.mark.parametrize("N", [4, 6])
    def test_chirality_diagonal_signs(self, N):
        chi = ed._chirality(N)
        off = chi - np.diag(np.diag(chi))
        assert np.abs(off).max() < 1e-13
        diag = np.diag(chi)
        assert np.abs(diag.imag).max() < 1e-13
        assert set(np.round(diag.real).astype(int)) == {-1, 1}

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            ed.majorana(0, 4)
        with pytest.raises(ValueError):
            ed.majorana(5, 4)
        with pytest.raises(ValueError):
            ed.majorana(1, 7)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            ed.majorana(1, 26)

    @pytest.mark.parametrize("N", range(2, 2 * ed.MAX_QUBITS + 1, 2))
    def test_strings_equal_the_label_construction(self, N):
        # the closed-form masks against the layout written out as Pauli
        # labels, qubit 1 leftmost, and read factor by factor
        assert ed._majorana_strings(N) == [_label_string(_majorana_labels(l, N))
                                           for l in range(1, N + 1)]


def _majorana_labels(l, N):
    """psi_1 = X ... X; psi_2j and psi_2j+1 carry Y and Z at qubit n - j + 1
    behind a run of X, with identities after it (n = N/2)."""
    n = N // 2
    if l == 1:
        return ["x"] * n
    j, odd = divmod(l, 2)
    pos = n - j + 1
    return ["x"] * (pos - 1) + ["z" if odd else "y"] + ["i"] * (n - pos)


def _label_string(labels):
    """(x-mask, z-mask, phase) of a Pauli tensor product with Y = i X Z,
    the leftmost factor on the top bit."""
    n, x, z, phase = len(labels), 0, 0, 1 + 0j
    for m, label in enumerate(labels, start=1):
        bit = 1 << (n - m)
        if label in ("x", "y"):
            x |= bit
        if label in ("y", "z"):
            z |= bit
        if label == "y":
            phase *= 1j
    return x, z, phase


class TestDefectMatrix:
    def test_k0_identity(self):
        assert np.array_equal(ed.build_dc(6, 0), np.eye(8))

    def test_kmax_single_entry(self):
        d = ed.build_dc(6, 3)
        assert d[0, 0] == 1.0 and d.sum() == 1.0

    def test_trace_fraction(self):
        for N in (4, 6, 8):
            for k in range(N // 2 + 1):
                d = ed.build_dc(N, k)
                assert np.trace(d) / 2 ** (N // 2) == 2.0 ** (-k)

    @pytest.mark.parametrize("N,k", [(4, 1), (6, 2), (8, 3)])
    def test_printed_expansions(self, N, k):
        assert ed.verify_dc_majorana_expansion(N, k)

    @pytest.mark.parametrize("N,k", [(6, 1), (8, 2), (10, 3), (6, 3), (8, 4), (10, 5)])
    def test_general_expansion(self, N, k):
        assert ed.verify_dc_majorana_expansion(N, k)

    def test_half_case_explicit(self):
        # (1 + chirality)/2 puts ones exactly on the first half of the diagonal
        N = 4
        expanded = (np.eye(4) + ed._chirality(N)) / 2
        assert np.abs(expanded - ed.build_dc(N, 1)).max() < 1e-13


class TestHamiltonian:
    def test_hermitian(self):
        params = ed.ModelParams(N=12, p=4, seed=5)
        H = ed.build_h_syk(params, ed.sample_rng(5, 0))
        assert np.abs(H - H.conj().T).max() < 1e-13

    def test_traceless(self):
        params = ed.ModelParams(N=10, p=4, seed=5)
        H = ed.build_h_syk(params, ed.sample_rng(5, 0))
        assert abs(np.trace(H)) < 1e-12

    def test_trace_h2_normalized(self):
        params = ed.ModelParams(N=16, p=4, seed=11, samples=50)
        vals = np.array([np.sum(np.abs(ed.build_h_syk(params, ed.sample_rng(11, s))) ** 2)
                         / params.dim for s in range(params.samples)])
        mean = vals.mean()
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(mean - 1.0) < 3 * stderr

    def test_p_equals_n_single_term(self):
        params = ed.ModelParams(N=4, p=4, seed=3)
        H = ed.build_h_syk(params, ed.sample_rng(3, 0))
        eigs = np.linalg.eigvalsh(H)
        assert eigs[0] == pytest.approx(-abs(eigs[-1]), abs=1e-12)
        assert np.allclose(np.abs(eigs), abs(eigs[0]), atol=1e-12)

    @pytest.mark.parametrize("N", [8, 10, 12])
    @pytest.mark.parametrize("p", [2, 4])
    def test_matches_dense_majorana_oracle(self, N, p):
        # H = sum_t c_t i^(p(p-1)/2) psi_i1 ... psi_ip from dense Majorana products,
        # couplings drawn from the same stream in combinations order
        params = ed.ModelParams(N=N, p=p, seed=9)
        H = ed.build_h_syk(params, ed.sample_rng(9, 0))
        n_terms = math.comb(N, p)
        couplings = ed.sample_rng(9, 0).standard_normal(n_terms) / math.sqrt(n_terms)
        psi = [ed.majorana(l, N) for l in range(1, N + 1)]
        oracle = np.zeros_like(H)
        for c, idx_set in zip(couplings, combinations(range(N), p)):
            term = np.eye(params.dim, dtype=complex)
            for i in idx_set:
                term = term @ psi[i]
            oracle += c * 1j ** (p * (p - 1) // 2) * term
        assert np.abs(H - oracle).max() < 1e-13


class TestChiralityBlocks:
    @pytest.mark.parametrize("N", [8, 12, 16])
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_h_is_block_diagonal_in_top_qubit(self, N, p):
        params = ed.ModelParams(N=N, p=p, seed=13)
        H = ed.build_h_syk(params, ed.sample_rng(13, 0))
        half = params.dim // 2
        assert not H[:half, half:].any() and not H[half:, :half].any()
        assert H[:half, :half].any() and H[half:, half:].any()

    @pytest.mark.parametrize("N", [8, 12, 16])
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_x_masks_leave_top_qubit_alone(self, N, p):
        top = 1 << (N // 2 - 1)
        xs, _, _ = ed._term_structure(N, p)
        assert all(x & top == 0 for x in xs)


def _fresh_blocks(params, rng):
    """Both chirality blocks of one realization, in newly allocated arrays."""
    half = params.dim // 2
    blocks = [np.zeros((half, half), dtype=complex) for _ in range(2)]
    ed._h_blocks(params, rng, blocks)
    return blocks


def _sign_matrix_blocks(params, rng):
    """The chirality blocks summed one x-mask group at a time: each group's
    terms expanded into a dense +-1 sign matrix over basis states and summed
    along axis 0.  Oracle for the Walsh-Hadamard assembly of `_h_blocks`."""
    N, p = params.N, params.p
    half = params.dim // 2
    n_terms = math.comb(N, p)
    couplings = rng.standard_normal(n_terms) / math.sqrt(n_terms)
    singles = ed._majorana_strings(N)
    groups = {}
    for t, idx_set in enumerate(combinations(range(N), p)):
        x, z, phase = ed._pauli_product(singles[i] for i in idx_set)
        groups.setdefault(x, []).append((t, z, 1j ** (p * (p - 1) // 2) * phase))
    blocks = [np.zeros((half, half), dtype=complex) for _ in range(2)]
    idx = np.arange(half)
    states = np.arange(params.dim)
    parity = ed._parity_signs(N // 2)
    for x, members in groups.items():
        terms, zs, phases = map(np.array, zip(*members))
        signs = parity[zs[:, None] & states]
        entries = ((couplings[terms] * phases)[:, None] * signs).sum(axis=0)
        for block, part in zip(blocks, np.split(entries, 2)):
            block[idx ^ x, idx] = part
    return blocks


class TestHadamardAssembly:
    @pytest.mark.parametrize("N", [14, 16, 20])
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_matches_sign_matrix_assembly(self, N, p):
        params = ed.ModelParams(N=N, p=p, seed=29)
        got = _fresh_blocks(params, ed.sample_rng(29, 0))
        want = _sign_matrix_blocks(params, ed.sample_rng(29, 0))
        for block, oracle in zip(got, want):
            assert np.abs(block - oracle).max() < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 4, 5])
    def test_hadamard_rows_match_sylvester(self, n):
        rows = np.random.default_rng(n).standard_normal((3, 1 << n))
        want = rows @ ed._sylvester(n)
        got = ed._hadamard_rows(rows.reshape(-1), n)
        assert np.abs(got - want).max() < 1e-12
        if n:  # the top-bit-0 half; at n = 1 the top bit lies in H_b
            got = ed._hadamard_rows(rows.reshape(-1), n, half=True)
            assert got.shape == (3, 1 << (n - 1))
            assert np.abs(got - want[:, : 1 << (n - 1)]).max() < 1e-12


def _group_loop_write(params, blocks, xs, slots, weights):
    """`_write_groups` one x-mask group at a time, each group's row W_x
    written down the columns, block[b XOR x, b] = W_x[b].  Oracle for the
    one row-wise indexed assignment of `_write_groups`."""
    half = params.dim // 2
    spread = np.zeros(len(xs) * params.dim)
    spread[slots] = weights.real
    real = ed._hadamard_rows(spread, params.N // 2, half=len(blocks) == 1)
    spread[slots] = weights.imag
    imag = ed._hadamard_rows(spread, params.N // 2, half=len(blocks) == 1)
    idx = np.arange(half)
    for x, re, im in zip(xs, real, imag):
        entries, rows = re + 1j * im, idx ^ x
        for block, part in zip(blocks, (entries[:half], entries[half:])):
            block[rows, idx] = part


@pytest.mark.parametrize("N, p", [(4, 2), (4, 4), (6, 6), (10, 4), (12, 6), (16, 2),
                                  (18, 4), (22, 4)])
@pytest.mark.parametrize("count", [1, 2])
def test_scatter_equals_group_loop_bit_for_bit(N, p, count, monkeypatch):
    params = ed.ModelParams(N=N, p=p)
    half = params.dim // 2

    def assemble(seed):
        blocks = [np.zeros((half, half), dtype=complex) for _ in range(count)]
        ed._h_blocks(params, ed.sample_rng(seed, 0), blocks)
        return [block.tobytes() for block in blocks]

    got = [assemble(seed) for seed in (0, 1)]
    monkeypatch.setattr(ed, "_write_groups", _group_loop_write)
    assert got == [assemble(seed) for seed in (0, 1)]


@pytest.mark.parametrize("N", [12, 18, 20, 22])
def test_chunks_equal_one_write_bit_for_bit(N):
    # every group's row is transformed on its own, so the chunking of
    # `_h_blocks` cannot change a bit; one block at N/2 odd, as ED holds
    params = ed.ModelParams(N=N, p=4)
    half = params.dim // 2
    count = 1 if N // 2 % 2 else 2
    got = [np.zeros((half, half), dtype=complex) for _ in range(count)]
    ed._h_blocks(params, ed.sample_rng(3, 0), got)
    n_terms = math.comb(N, 4)
    couplings = ed.sample_rng(3, 0).standard_normal(n_terms) / math.sqrt(n_terms)
    xs, slots, phases = ed._term_structure(N, 4)
    want = [np.zeros((half, half), dtype=complex) for _ in range(count)]
    ed._write_groups(params, want, xs, slots, couplings * phases)
    assert [block.tobytes() for block in got] == [block.tobytes() for block in want]


@pytest.mark.parametrize("N", [10, 12, 14, 16, 18, 20, 22])
@pytest.mark.parametrize("p", [4, 6])
def test_chunk_spread_is_bounded(N, p, monkeypatch):
    # a chunk's spread (groups x 2^(N/2) doubles) is at most a quarter
    # block and at most 2^15 doubles, and the chunks cover every group once
    params = ed.ModelParams(N=N, p=p)
    chunks = []
    write_groups = ed._write_groups

    def spy(params, blocks, xs, slots, weights):
        chunks.append(list(xs))
        return write_groups(params, blocks, xs, slots, weights)

    monkeypatch.setattr(ed, "_write_groups", spy)
    half = params.dim // 2
    ed._h_blocks(params, ed.sample_rng(0, 0), [np.zeros((half, half), dtype=complex)])
    assert sum(chunks, []) == list(ed._term_structure(N, p)[0])
    for xs in chunks:
        assert len(xs) * params.dim * 8 <= min(params.dim ** 2, 1 << 18)


class TestBlockMirror:
    """At N/2 odd, S = X^x Z^z with x = sum_(j even) 2^j, z = 2^(N/2-1) - 1
    fixes every Majorana under S conj(.) S^dagger and maps block 0 onto
    block 1 up to the sign (-1)^(p(p-1)/2)."""

    @staticmethod
    def _s_matrix(N):
        n = N // 2
        x = sum(1 << j for j in range(0, n, 2))
        return ed._pauli_matrix((x, (1 << (n - 1)) - 1, 1), n)

    @pytest.mark.parametrize("N", [2, 6, 10, 14])
    def test_s_fixes_every_majorana(self, N):
        S = self._s_matrix(N)
        for l in range(1, N + 1):
            psi = ed.majorana(l, N)
            assert np.abs(S @ psi.conj() @ S.conj().T - psi).max() < 1e-13

    @pytest.mark.parametrize("N,p", [(N, p) for N in (2, 6, 10, 14) for p in (2, 4, 6) if p <= N])
    def test_conjugation_maps_block0_onto_block1(self, N, p):
        params = ed.ModelParams(N=N, p=p, seed=31)
        b0, b1 = _fresh_blocks(params, ed.sample_rng(31, 0))
        half = params.dim // 2
        S10 = self._s_matrix(N)[half:, :half]  # S flips the top qubit
        sigma = (-1) ** (p * (p - 1) // 2)
        assert ed._mirror_sign(N, p) == sigma
        assert np.abs(S10 @ b0.conj() @ S10.conj().T - sigma * b1).max() < 1e-14

    @pytest.mark.parametrize("N,p,k,fn,calls", [
        (14, 4, 0, "sample", 1), (14, 4, 2, "paired", 2),
        (14, 6, 2, "paired", 2),  # sigma = -1: the mirrored slice -0.0 must hit the 0.0 entry
        (12, 4, 0, "sample", 2), (12, 4, 2, "paired", 3),
    ])
    def test_eigvalsh_calls_per_sample(self, N, p, k, fn, calls, monkeypatch):
        count = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            count.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(ed.np.linalg, "eigvalsh", counted)
        params = ed.ModelParams(N=N, p=p, theta=2.0, k=k, seed=3, samples=3)
        if fn == "sample":
            ed.sample_spectra(params)
        else:
            ed.paired_reduced_moments(params, 4)
        assert len(count) == calls * params.samples
        assert set(count) == {(params.dim // 2, params.dim // 2)}


def _paired_full_matrix_oracle(params, max_n):
    """The estimator on full dim x dim matrices, two eigvalsh calls per sample."""
    defect = params.theta * np.diag(ed.build_dc(params.N, params.k))
    per_sample = np.zeros((params.samples, max_n))
    for s in range(params.samples):
        H = ed.build_h_syk(params, ed.sample_rng(params.seed, s))
        eig_syk = np.linalg.eigvalsh(H)
        H[np.diag_indices_from(H)] += defect
        eig_full = np.linalg.eigvalsh(H)
        for n in range(1, max_n + 1):
            full = np.mean(eig_full ** n)
            syk = np.mean(eig_syk ** n) if n % 2 == 0 else 0.0
            per_sample[s, n - 1] = (full - syk) / params.r
    means = per_sample.mean(axis=0)
    stderr = per_sample.std(axis=0, ddof=1) / math.sqrt(params.samples)
    return list(means), list(stderr)


class TestBlockSpectraOracle:
    @pytest.mark.parametrize("k,N", [(k, N) for N in (8, 12, 16) for k in (0, 1, 2, N // 2)])
    @pytest.mark.parametrize("theta", [0.0, 3.0, -2.5])
    def test_sample_spectra_match_full_matrix(self, N, k, theta):
        params = ed.ModelParams(N=N, p=4, theta=theta, k=k, seed=21, samples=2)
        for s, spectrum in enumerate(ed.sample_spectra(params)):
            H = ed.build_h_syk(params, ed.sample_rng(21, s))
            oracle = np.linalg.eigvalsh(H + theta * ed.build_dc(N, k))
            assert np.abs(spectrum - oracle).max() < 1e-12

    @pytest.mark.parametrize("k,p,N", [(k, p, N) for N in (2, 6, 10, 14) for p in (2, 4, 6)
                                       for k in sorted({0, 1, 2, N // 2})
                                       if p <= N and k <= N // 2])
    @pytest.mark.parametrize("theta", [0.0, 3.0, -2.5])
    def test_mirrored_spectra_match_full_matrix(self, N, p, k, theta):
        # N/2 odd: block 1's spectrum comes from block 0's; N = 2 has a = 0
        # high Hadamard bits, so the top bit of the half transform is in H_b
        params = ed.ModelParams(N=N, p=p, theta=theta, k=k, seed=23, samples=2)
        for s, spectrum in enumerate(ed.sample_spectra(params)):
            H = ed.build_h_syk(params, ed.sample_rng(23, s))
            oracle = np.linalg.eigvalsh(H + theta * ed.build_dc(N, k))
            assert np.abs(spectrum - oracle).max() < 1e-12

    @pytest.mark.parametrize("k,N", [(k, N) for N in (2, 6, 10, 12, 14) for k in (0, 1, 2)
                                     if k <= N // 2])
    def test_paired_moments_match_full_matrix(self, N, k):
        params = ed.ModelParams(N=N, p=min(N, 4), theta=2.5, k=k, seed=17, samples=4)
        means, errs = ed.paired_reduced_moments(params, 6)
        o_means, o_errs = _paired_full_matrix_oracle(params, 6)
        for got, want in zip(means + errs, o_means + o_errs):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_phase_scan_matches_per_point_spectra(self):
        for N in (6, 12, 14):
            for k in (0, 2):
                # repeated thetas reuse a spectrum, and each theta after the
                # first needs the shifts before it undone exactly
                thetas = [0.0, 1.0, 5.0, 2.5, -1.0, 2.5, 0.0, 5e-324]
                rows = ed.phase_scan(ed.ModelParams(N=N, p=4, k=k, seed=5, samples=4), thetas)
                reference = []
                for theta in thetas:
                    params = ed.ModelParams(N=N, p=4, theta=theta, k=k, seed=5, samples=4)
                    spectra = ed.sample_spectra(params)
                    if N // 2 % 2 and (k == 0 or theta in (0.0, 5e-324)):
                        # N/2 odd, p = 4: the blocks are isospectral and both
                        # carry the same constant shift (a shift of 5e-324
                        # rounds away on every level), so every level is
                        # exactly doubled; the scan pools each level once
                        assert all(np.array_equal(e[::2], e[1::2]) for e in spectra)
                        spectra = [e[::2] for e in spectra]
                    reference.append({"theta": theta, "k": k, "samples": 4,
                                      **ed.spectral_gap_report(np.concatenate(spectra))})
                assert rows == reference


def _memo_block_spectra(params, defects):
    """`_block_spectra` through a memo that, for each sample, assembles both
    blocks in new arrays and diagonalizes a shifted copy of a block for
    every (block, slice of theta diag(D)) it has not seen, keyed by the
    slice's bytes; block 1 is mirrored wherever its slice is a constant.
    Oracle for the (theta, k) shift keys and for the one-copy, in-place
    schedule on buffers that the samples reuse."""
    sigma = ed._mirror_sign(params.N, params.p)
    shifts = [theta * np.diag(ed.build_dc(params.N, k)) for theta, k in defects]
    for s in range(params.samples):
        blocks = _fresh_blocks(params, ed.sample_rng(params.seed, s))
        memo = {}

        def eig(i, part):
            key = (i, (part + 0.0).tobytes())
            if key not in memo:
                block = blocks[i]
                if part.any():
                    block = block.copy()
                    block[np.diag_indices_from(block)] += part
                memo[key] = np.linalg.eigvalsh(block)
            return memo[key]

        out = []
        for shift in shifts:
            low, high = np.split(shift, 2)
            if sigma and (high == high[0]).all():
                mirrored = eig(0, sigma * high)
                out.append([eig(0, low), mirrored if sigma > 0 else -mirrored])
            else:
                out.append([eig(0, low), eig(1, high)])
        yield out


class TestOneCopySchedule:
    @pytest.mark.parametrize("N", [10, 12, 14, 16])
    @pytest.mark.parametrize("p", [4, 6])  # p = 6 at N/2 odd is sigma = -1, the -0.0 key
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_bit_identical_to_memo_oracle(self, N, p, k, monkeypatch):
        params = ed.ModelParams(N=N, p=p, theta=2.5, k=k, seed=19, samples=3)

        def run():
            spectra = ed.sample_spectra(params)
            means, errs = ed.paired_reduced_moments(params, 6)
            rows = [ed.phase_scan(replace(params, k=scan_k), [0.0, 2.5, 1.0, 2.5])
                    for scan_k in (0, k)]
            return spectra, np.array(means + errs), rows

        got = run()
        monkeypatch.setattr(ed, "_block_spectra", _memo_block_spectra)
        want = run()
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_block1_never_assembled_at_odd_half(self, monkeypatch):
        # sigma = +1 (p = 4) and -1 (p = 6): block 1 is always read off block 0
        sizes = []
        h_blocks = ed._h_blocks

        def spy(params, rng, blocks):
            sizes.append(len(blocks))
            return h_blocks(params, rng, blocks)

        monkeypatch.setattr(ed, "_h_blocks", spy)
        for N in (10, 14):
            for p in (4, 6):
                for k in range(N // 2 + 1):
                    params = ed.ModelParams(N=N, p=p, theta=-2.0, k=k, seed=7, samples=2)
                    ed.sample_spectra(params)
                    ed.paired_reduced_moments(params, 4)
                    ed.phase_scan(params, [0.0, 1.5, -2.0])
        assert sizes and set(sizes) == {1}

    @pytest.mark.parametrize("N,k,fn", [
        pytest.param(N, k, fn, id=fn if (N, k) == (18, 0) else f"N{N}-k{k}-{fn}")
        for N, k in ((18, 0), (18, 2), (20, 2)) for fn in ("sample", "paired", "scan")])
    def test_peak_memory_below_two_blocks(self, N, k, fn):
        # the blocks held (block 0 alone at N/2 odd, both at N/2 even) plus
        # less than one block: every shift is made and undone in place, and
        # the assembly's chunks are small
        params = ed.ModelParams(N=N, p=4, theta=3.0, k=k, seed=5, samples=2)

        def run():
            if fn == "sample":
                ed.sample_spectra(params)
            elif fn == "paired":
                ed.paired_reduced_moments(params, 4)
            else:
                ed.phase_scan(params, [3.0, -1.5, 5.0])

        run()  # warm-up: term structure and Sylvester matrices are cached
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 1 if N // 2 % 2 else 2
        assert peak / ((params.dim // 2) ** 2 * 16) < held + 1


class TestSampling:
    def test_eigenvalue_counts_and_sorting(self):
        params = ed.ModelParams(N=8, p=4, theta=1.5, k=1, seed=2, samples=3)
        spectra = ed.sample_spectra(params)
        assert isinstance(spectra, list) and len(spectra) == 3
        for s in spectra:  # one sorted float64 array of length dim per sample
            assert isinstance(s, np.ndarray) and s.dtype == np.float64
            assert s.shape == (params.dim,)
            assert np.all(np.diff(s) >= 0)

    def test_determinism(self):
        params = ed.ModelParams(N=8, p=4, theta=1.0, k=1, seed=7, samples=2)
        a = ed.sample_spectra(params)
        b = ed.sample_spectra(params)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1, s2)

    def test_sample_streams_order_insensitive(self):
        params1 = ed.ModelParams(N=8, p=4, seed=7, samples=3)
        params5 = ed.ModelParams(N=8, p=4, seed=7, samples=1)
        full = ed.sample_spectra(params1)
        first = ed.sample_spectra(params5)
        assert np.array_equal(full[0], first[0])

    def test_theta_zero_is_pure_random(self):
        params = ed.ModelParams(N=8, p=4, theta=0.0, k=2, seed=4)
        spectrum = ed.sample_spectra(params)[0]
        H = ed.build_h_syk(params, ed.sample_rng(4, 0))
        assert np.allclose(spectrum, np.linalg.eigvalsh(H), atol=1e-13)

    def test_first_two_empirical_moments(self):
        params = ed.ModelParams(N=12, p=4, theta=2.0, k=1, seed=8, samples=40)
        spectra = ed.sample_spectra(params)
        r = params.r
        per1 = [np.mean(s) for s in spectra]
        se1 = np.std(per1, ddof=1) / math.sqrt(len(per1))
        assert abs(np.mean(per1) - r * 2.0) < 4 * se1
        per2 = [np.mean(s ** 2) for s in spectra]
        se2 = np.std(per2, ddof=1) / math.sqrt(len(per2))
        assert abs(np.mean(per2) - (1.0 + r * 4.0)) < 4 * se2


class TestPairedComparison:
    def test_matches_analytic_moments(self):
        params = ed.ModelParams(N=14, p=4, theta=3.0, k=2, seed=424242, samples=25)
        means, errs = ed.paired_reduced_moments(params, 6)
        q = ed.qn_finite(params.p, params.N)
        qt = ed.qtilde_weight(params.p, params.N, params.k)
        for n in range(1, 7):
            analytic = float(mo.reduced_moment(n).substitute(q=q, qt=qt).evaluate(theta=3.0))
            scale = max(errs[n - 1], 1e-10 * max(1.0, abs(analytic)))
            assert abs(means[n - 1] - analytic) < 3 * scale, f"n={n}"


class TestFiniteSizeWeights:
    def test_pair_matches_the_weights(self):
        assert ed.finite_size_weights(26, 4, 3) == (ed.qn_finite(4, 26), ed.qtilde_weight(4, 26, 3))

    def test_k0_has_no_wall(self):
        assert ed.finite_size_weights(8, 4, 0) == (ed.qn_finite(4, 8), 1)

    @pytest.mark.parametrize("N,p,k", [(2, 2, 0), (2, 2, 1), (8, 8, 4), (26, 4, 13),
                                       (10 ** 6, 4, 3)])
    def test_boundary_accepted(self, N, p, k):
        q, qt = ed.finite_size_weights(N, p, k)
        assert -1 <= q <= 1 and -1 <= qt <= 1

    @pytest.mark.parametrize("N,p,k", [(0, 2, 0), (3, 2, 1), (-4, 2, 0), (8, 0, 1), (8, 3, 1),
                                       (8, 10, 1), (8, -2, 1), (8, 4, -1), (8, 4, 5)])
    def test_boundary_rejected(self, N, p, k):
        with pytest.raises(ValueError):
            ed.finite_size_weights(N, p, k)

    def test_asymptotic_q(self):
        assert abs(float(ed.qn_finite(4, 1000)) - math.exp(-32 / 1000)) < 1e-2

    def test_p_equals_n(self):
        for p in (2, 4, 6):
            assert ed.qn_finite(p, p) == (-1) ** p

    def test_frozen_value_n26(self):
        assert ed.qn_finite(4, 26) == Fraction(1227, 7475)

    def test_q0_is_one(self):
        assert ed.qj_weight(4, 20, 0) == 1

    def test_qtilde_k1(self):
        assert ed.qtilde_weight(4, 26, 1) == ed.qj_weight(4, 26, 0)

    def test_qtilde_k2(self):
        q0, q1 = ed.qj_weight(4, 26, 0), ed.qj_weight(4, 26, 1)
        assert ed.qtilde_weight(4, 26, 2) == (q0 + q1) / 2

    def test_qtilde_k4_closing_display(self):
        q = [ed.qj_weight(4, 26, j) for j in range(4)]
        assert ed.qtilde_weight(4, 26, 4) == (q[0] + 3 * (q[1] + q[2]) + q[3]) / 8

    def test_qtilde_k3_display(self):
        q = [ed.qj_weight(4, 26, j) for j in range(3)]
        assert ed.qtilde_weight(4, 26, 3) == (q[0] + 2 * q[1] + q[2]) / 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ed.qn_finite(6, 4)
        with pytest.raises(ValueError):
            ed.qtilde_weight(3, 26, 2)

    def test_qn_finite_is_the_qj_weight_at_half_p(self):
        # both are E (-1)^|A & I| for a uniform p-subset I: |A| = p for
        # qn_finite, |A| = 2j for q_j; here also against the overlap sum
        for N in range(2, 41, 2):
            for p in range(2, N + 1, 2):
                overlap = sum((-1) ** c * math.comb(p, c) * math.comb(N - p, p - c)
                              for c in range(p + 1))
                assert ed.qn_finite(p, N) == ed.qj_weight(p, N, p // 2) == Fraction(
                    overlap, math.comb(N, p)), (p, N)


class TestPhaseScan:
    def test_gap_appears_at_large_theta(self):
        base = ed.ModelParams(N=12, p=4, k=2, seed=3, samples=10)
        rows = ed.phase_scan(base, thetas=[1.0, 5.0])
        by_theta = {r["theta"]: r for r in rows}
        assert not by_theta[1.0]["bimodal"]
        assert by_theta[1.0]["gap"] == 0.0
        assert by_theta[5.0]["bimodal"]
        assert by_theta[5.0]["gap"] > 0.5

    def test_report_fields(self):
        report = ed.spectral_gap_report(np.concatenate([np.linspace(0, 1, 300),
                                                        np.linspace(5, 6, 300)]))
        assert report["bimodal"] and report["gap"] > 3.5

    def test_unimodal_uniform(self):
        report = ed.spectral_gap_report(np.linspace(0, 1, 2000))
        assert not report["bimodal"] and report["gap"] == 0.0

    @pytest.mark.parametrize("offset", [1e308, 1e200], ids=["1e308", "1e200"])
    def test_gap_ratio_stays_finite(self, offset):
        # a unit band and a copy of it `offset` higher: the largest gap over
        # a median spacing near 0.01 overflows a float at 1e308, not at 1e200
        band = np.linspace(0, 1, 100)
        pooled = np.concatenate([band, band + offset])
        if offset == 1e308:
            with pytest.raises(ConvergenceError, match="gap statistics overflow a float"):
                ed.spectral_gap_report(pooled)
        else:
            report = ed.spectral_gap_report(pooled)
            assert report["bimodal"] and 1e200 < report["gap_ratio"] < math.inf


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ed.ModelParams(N=7, p=4)
        with pytest.raises(ValueError):
            ed.ModelParams(N=8, p=3)
        with pytest.raises(ValueError):
            ed.ModelParams(N=8, p=4, k=5)
        with pytest.raises(ValueError):
            ed.ModelParams(N=26, p=4)
        with pytest.raises(ValueError):
            ed.ModelParams(N=8, p=4, theta=math.nan)

    def test_derived_quantities(self):
        params = ed.ModelParams(N=16, p=4, k=2)
        assert params.dim == 256
        assert params.r == 0.25
