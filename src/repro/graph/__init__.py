"""Graph library: the DGL / PyTorch-Geometric substitute.

Homogeneous, heterogeneous and temporal graphs; block-diagonal batching;
neighbor/random-walk sampling; synthetic topology generators.
"""

from . import generators
from .batch import BatchedGraph, batch_graphs, unbatch
from .graph import Graph, sorted_unique, unique_pairs
from .hetero import EdgeType, HeteroGraph
from .partition import PartitionPlan, partition_graph, plan_digest
from .sampling import (
    SampledBlock,
    pinsage_neighbors,
    random_walks,
    uniform_neighbor_block,
)
from .temporal import DynamicGraph, TemporalSignal

__all__ = [
    "BatchedGraph",
    "DynamicGraph",
    "EdgeType",
    "Graph",
    "HeteroGraph",
    "PartitionPlan",
    "SampledBlock",
    "TemporalSignal",
    "batch_graphs",
    "generators",
    "partition_graph",
    "pinsage_neighbors",
    "plan_digest",
    "random_walks",
    "unbatch",
    "uniform_neighbor_block",
    "sorted_unique",
    "unique_pairs",
]
