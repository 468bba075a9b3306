"""snicbench: the IISWC'23 SmartNIC datacenter-tax study, in simulation.

Public surface:

* :mod:`repro.core` — discrete-event kernel, queueing fast path, metrics
* :mod:`repro.hardware` — testbed specifications (Tables 1-2)
* :mod:`repro.calibration` — measured anchors -> model coefficients
* :mod:`repro.netstack` — packets, links and the TCP state machine
* :mod:`repro.functions` — the 13 evaluated network functions, for real
* :mod:`repro.power` — power models and energy accounting
* :mod:`repro.workloads` — pktgen, YCSB, traces, corpora
* :mod:`repro.experiments` — one harness per paper table/figure
* :mod:`repro.offload` — placement advisor and load balancer (§5.3)
* :mod:`repro.analysis` — TCO model and report generation
"""

__version__ = "1.0.0"
