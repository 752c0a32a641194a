"""gradsel: gradient-based estimation of fine-tuning losses for task-subset
selection, with a brute-force fine-tuning oracle to validate every estimate.

Pipeline: generate a corpus, meta-train a small model on all tasks, cache
per-sample margins and projected gradients at the meta-initialization, solve a
projected logistic regression per task subset to estimate its fine-tuned loss,
and drive forward selection or random-ensemble scoring on the estimates.
"""

__version__ = "0.1.0"
