"""Workload generators: pktgen, YCSB, traces, corpora."""

from .pktgen import (
    PacketSample,
    constant_size_stream,
    gbps_stream,
    pcap_mix_stream,
    payload_stream,
)
from .traces import RateTrace, hyperscaler_trace, summarize
from .ycsb import (
    WORKLOADS,
    Operation,
    WorkloadSpec,
    ZipfianGenerator,
    load_phase,
    run_phase,
)
from .corpus import (
    document_corpus,
    make_compression_input,
    query_stream,
)

__all__ = [
    "PacketSample",
    "constant_size_stream",
    "gbps_stream",
    "pcap_mix_stream",
    "payload_stream",
    "RateTrace",
    "hyperscaler_trace",
    "summarize",
    "WORKLOADS",
    "Operation",
    "WorkloadSpec",
    "ZipfianGenerator",
    "load_phase",
    "run_phase",
    "document_corpus",
    "make_compression_input",
    "query_stream",
]
