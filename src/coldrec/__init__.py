"""coldrec: cold-start next-article recommendation pipeline.

From MIND-format logs to confidence-weighted transition triplets,
content-aware latent-factor models (almm / forbes / oord), and warm- plus
cold-start ranking evaluation.
"""

__version__ = "0.1.0"
