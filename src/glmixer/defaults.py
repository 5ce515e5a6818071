"""Run-length defaults of a fit, kept free of numpy so the CLI's parser
can read them without loading the sampler; `gibbs` re-exports them."""

DEFAULT_N_ITER = 20000
DEFAULT_BURN_IN = 10000
DEFAULT_THIN = 2
DEFAULT_CHAINS = 4
