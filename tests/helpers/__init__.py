"""Test-only helpers (oracles and fixtures shared between test modules)."""
