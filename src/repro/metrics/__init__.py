"""Measurement: latency reservoirs, summaries, run collectors."""
