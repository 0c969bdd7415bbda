"""Measurement: latency reservoirs, summaries, one flat collector per run."""
