"""Spectra of step-kernel integral operators.

A step kernel acts on block-constant functions, so the eigenproblem of the
integral operator reduces to the k x k symmetric matrix D^{1/2} B D^{1/2}
with D = diag(pi); eigenvectors map back through D^{-1/2} and are
orthonormal in the pi-weighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphon import StepGraphon

# Eigenvalues at or below this share of the largest magnitude are treated as zero.
EIGENVALUE_TRUNCATION_TOL = 1e-10
# How close an eigenvalue must be to the degree value, relative to it, to be removed.
DEGREE_MATCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Nonzero eigenvalues (descending) of a step-kernel operator with their
    block-constant eigenfunctions, one row per eigenvalue."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    block_weights: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors": self.eigenvectors.tolist(),
            "pi": self.block_weights.tolist(),
        }


def spectrum(kernel: StepGraphon) -> Spectrum:
    """Nonzero spectrum of the integral operator of a symmetric step kernel;
    eigenvalues at or below EIGENVALUE_TRUNCATION_TOL times the largest
    magnitude are dropped, so scaling the kernel keeps the same ones."""
    pi = kernel.block_weights
    s = np.sqrt(pi)
    M = kernel.values * np.outer(s, s)
    eigvals, eigvecs = np.linalg.eigh(M)
    phi = eigvecs / s[:, None]
    keep = np.abs(eigvals) > EIGENVALUE_TRUNCATION_TOL * np.max(np.abs(eigvals))
    eigvals = eigvals[keep]
    phi = phi[:, keep]
    order = np.argsort(-eigvals, kind="stable")
    return Spectrum(eigvals[order], phi[:, order].T.copy(), pi)


def spec_minus(spec: Spectrum, degree_value: float) -> np.ndarray:
    """Eigenvalue multiset with one copy of the eigenvalue closest to
    `degree_value` removed.

    Raises ValueError when no eigenvalue lies within DEGREE_MATCH_TOL times
    |degree_value| of the degree value; that signals the kernel was not
    degree-regular.
    """
    lam = spec.eigenvalues
    if lam.size == 0:
        raise ValueError("spectrum is empty; no eigenvalue matches the degree value")
    i = int(np.argmin(np.abs(lam - degree_value)))
    if abs(float(lam[i]) - degree_value) > DEGREE_MATCH_TOL * abs(degree_value):
        raise ValueError(
            f"no eigenvalue within a relative {DEGREE_MATCH_TOL} of the degree value "
            f"{degree_value!r}; "
            "the kernel does not look degree-regular"
        )
    return np.delete(lam, i)
