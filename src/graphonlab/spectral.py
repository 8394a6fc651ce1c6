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

# Eigenvalues at or below this magnitude are treated as zero.
EIGENVALUE_TRUNCATION_TOL = 1e-10
# How close an eigenvalue must be to the degree value to be removed.
DEGREE_MATCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Nonzero eigenvalues (descending) of a step-kernel operator with their
    block-constant eigenfunctions, one row per eigenvalue."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    block_weights: np.ndarray

    def __len__(self) -> int:
        return self.eigenvalues.size

    def apply(self, kernel: StepGraphon) -> np.ndarray:
        """Operator image of each eigenfunction, one row per eigenvalue."""
        weighted = kernel.values * kernel.block_weights[None, :]
        return self.eigenvectors @ weighted.T

    def max_residual(self, kernel: StepGraphon) -> float:
        """sup-norm of T phi - lambda phi over all stored pairs."""
        if len(self) == 0:
            return 0.0
        resid = self.apply(kernel) - self.eigenvalues[:, None] * self.eigenvectors
        return float(np.max(np.abs(resid)))

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors": self.eigenvectors.tolist(),
            "pi": self.block_weights.tolist(),
        }


def spectrum(kernel: StepGraphon) -> Spectrum:
    """Nonzero spectrum of the integral operator of a symmetric step kernel;
    eigenvalues at or below EIGENVALUE_TRUNCATION_TOL in magnitude are dropped."""
    pi = kernel.block_weights
    s = np.sqrt(pi)
    M = kernel.values * np.outer(s, s)
    eigvals, eigvecs = np.linalg.eigh(M)
    phi = eigvecs / s[:, None]
    keep = np.abs(eigvals) > EIGENVALUE_TRUNCATION_TOL
    eigvals = eigvals[keep]
    phi = phi[:, keep]
    order = np.argsort(-eigvals, kind="stable")
    return Spectrum(eigvals[order], phi[:, order].T.copy(), pi)


def spec_minus(spec: Spectrum, degree_value: float) -> np.ndarray:
    """Eigenvalue multiset with one copy of the eigenvalue closest to
    `degree_value` removed.

    Raises ValueError when no eigenvalue lies within DEGREE_MATCH_TOL of the
    degree value; that signals the kernel was not degree-regular.
    """
    lam = spec.eigenvalues
    if lam.size == 0:
        raise ValueError("spectrum is empty; no eigenvalue matches the degree value")
    i = int(np.argmin(np.abs(lam - degree_value)))
    if abs(float(lam[i]) - degree_value) > DEGREE_MATCH_TOL:
        raise ValueError(
            f"no eigenvalue within {DEGREE_MATCH_TOL} of the degree value {degree_value!r}; "
            "the kernel does not look degree-regular"
        )
    return np.delete(lam, i)
