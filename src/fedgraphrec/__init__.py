"""Federated recommendation simulator.

Per-user clients train private embedding+MLP recommenders; a central server
builds a co-interaction graph over the users who opted into sharing, smooths
the uploaded item embeddings over that graph, and sends each user a
personalized (or global) item-embedding table every round.
"""
