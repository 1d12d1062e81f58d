import pin  # noqa: F401  (before numpy: same BLAS thread count as the runner)
