"""Exact census and brute-force verifier for prime-power extensions of
local fields without intermediate fields."""

__version__ = "0.1.0"
