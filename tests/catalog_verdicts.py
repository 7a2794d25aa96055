"""Catalog verdicts that the tests assert in advance.

The ids below must PASS in both models; the remaining entries' verdicts are
produced by the checker and published, not assumed in advance.
"""

EXPECTED_PASS_IDS: tuple[str, ...] = (
    "prop-2.1", "prop-2.2", "thm-2.3", "lemma-2.5", "prop-4.4", "prop-4.5",
    "prop-5.3", "prop-5.4", "lemma-6.0", "thm-6.1", "thm-6.2a", "thm-6.2b",
    "thm-7.1", "thm-7.2a", "thm-7.2b", "cor-7.2.1", "thm-7.3a", "thm-7.3b",
    "thm-8.1", "thm-8.2", "thm-8.3", "consistency-7v8",
)
