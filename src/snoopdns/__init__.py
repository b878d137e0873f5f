"""DNS cache snooping toolkit.

Measures how often client populations behind a caching resolver look up
given domains, by reading nothing but the resolver's cache state: TTL
values and response timing. Includes a ground-truth simulator for
validating every estimator offline.
"""

from .clock import Clock, SystemClock, VirtualClock
from .corpus import (ObservationLog, ObservationWriter, ParseError, load_domain_list,
                     load_observations)
from .engine import (INVALIDATING_KINDS, CycleError, DiscoveryMachine,
                     InconsistentTtl, InsufficientSeparation, MaxTtlEstimate,
                     Rd0Machine, RefreshObservation, SnoopError,
                     TimingCalibration, TimingMachine, TtlExceedsMax,
                     TtlRecursiveMachine, build_machine, calibrate_timing,
                     classify_timing, classify_window_read,
                     discover_max_ttl, snap_to_grid, ttl_grace)
from .estimation import (ArrivalEstimate, DomainStats, NoObservations, aggregate,
                         estimate, format_ranking_table, poisson_pmf,
                         rank_domains, spearman_rho, write_ranking_csv)
from .ratelimit import RateLimiter
from .scan import (BatchResult, ScanResult, discover_all, run_batch, run_scan,
                   true_client_rates)
from .simnet import (ConfigError, Sim, SimConfig, SimExchange, build_sim,
                     config_from_dict, load_scenario, serve_udp)
from .transport import ProbeReply, Prober, ProbeTimeout, UdpExchange
from .wire import (DnsQuery, DnsResponse, InvalidName, Malformed, Rcode,
                   RecordType, ResourceRecord, decode_query, decode_response,
                   encode_query, encode_response, min_answer_ttl,
                   normalize_name, validate_name)

__version__ = "0.1.0"

__all__ = [
    "Clock", "SystemClock", "VirtualClock",
    "ObservationLog", "ObservationWriter", "ParseError", "load_domain_list",
    "load_observations",
    "INVALIDATING_KINDS", "CycleError", "DiscoveryMachine", "InconsistentTtl",
    "InsufficientSeparation", "MaxTtlEstimate", "Rd0Machine",
    "RefreshObservation", "SnoopError", "TimingCalibration", "TimingMachine",
    "TtlExceedsMax", "TtlRecursiveMachine", "build_machine",
    "calibrate_timing", "classify_timing",
    "classify_window_read", "discover_max_ttl", "snap_to_grid", "ttl_grace",
    "ArrivalEstimate", "DomainStats", "NoObservations", "aggregate",
    "estimate", "format_ranking_table", "poisson_pmf", "rank_domains",
    "spearman_rho", "write_ranking_csv",
    "RateLimiter",
    "BatchResult", "ScanResult", "discover_all", "run_batch", "run_scan",
    "true_client_rates",
    "ConfigError", "Sim", "SimConfig", "SimExchange", "build_sim",
    "config_from_dict", "load_scenario", "serve_udp",
    "ProbeReply", "Prober", "ProbeTimeout", "UdpExchange",
    "DnsQuery", "DnsResponse", "InvalidName", "Malformed", "Rcode",
    "RecordType", "ResourceRecord", "decode_query", "decode_response",
    "encode_query", "encode_response", "min_answer_ttl", "normalize_name",
    "validate_name",
]
