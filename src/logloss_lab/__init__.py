"""Numerical laboratory for minimax regret under logarithmic loss."""

from . import assouad, bounds, cli, core, cover, game, verify
from .core import (
    ESTIMATION_CONSTANT,
    LAMBDA_STAR,
    BinaryTree,
    ExpertClass,
    eta,
    kl_bernoulli,
    log_loss,
    phi,
    psi,
)
from .game import GameInstance, dual_value, exact_minimax

__all__ = [
    "assouad",
    "bounds",
    "cli",
    "core",
    "cover",
    "game",
    "verify",
    "ESTIMATION_CONSTANT",
    "LAMBDA_STAR",
    "BinaryTree",
    "ExpertClass",
    "eta",
    "kl_bernoulli",
    "log_loss",
    "phi",
    "psi",
    "GameInstance",
    "dual_value",
    "exact_minimax",
]
