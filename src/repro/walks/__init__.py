"""√c-walk simulation kernels: pair walks (D estimation, in-process or on
Spark) and the MC baseline's trace index."""
