"""The suite runs under the package's BLAS configuration.

Importing ``authorlm`` before numpy pins BLAS to one thread, as every CLI
stage runs; a test module that imports numpy first would otherwise leave
the in-process products on as many threads as the host has cores, where
OpenBLAS splits each product's rows differently.
"""

import authorlm  # noqa: F401
