"""Privacy-preserving survey marketplace.

Locally randomized survey responses (one-time RAPPOR), a two-secret key
escrow, a simulated smart-contract ledger enforcing fair exchange, and a
harness for accuracy experiments.
"""

__version__ = "0.1.0"
