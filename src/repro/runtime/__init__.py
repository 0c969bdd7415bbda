"""Request-processing runtime: requests, contexts, queues, workers."""
