"""The metric name of the removed fragment result cache's hit counter.

Hf executes every fragment call; nothing records this metric.  The name
stays importable because ``perfbench/`` reads it, so its ``cache_hits``
layer reads 0."""

M_CACHE_HITS = "repro_cache_hits_total"
