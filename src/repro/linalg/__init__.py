"""Sparse transition-matrix linear algebra: numpy mat-vec and local-push kernels."""
