"""Bi-convolutional matrix factorization for rating prediction from reviews.

Two parallel text CNNs encode each user's and each item's concatenated
reviews into latent-space priors; closed-form alternating updates fit the
user and item factor matrices around those priors.  The package also ships
the PMF and ConvMF baselines and an RMSE comparison harness.
"""

__version__ = "0.1.0"
