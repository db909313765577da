"""Desk-scale laboratory for the combinatorics of shrink wrapping.

Everything in the package is finitely represented and decidable: points are
ultimately periodic sequences, trees carry finitely many branches, and every
verifier answers by exhaustive scan of a computable bound.
"""
