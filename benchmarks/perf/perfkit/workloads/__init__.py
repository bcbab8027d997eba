"""The five workloads, in the order the layer ladder visits them."""

from perfkit.workloads.select_patterns import SelectPatterns
from perfkit.workloads.bgp_join import BgpJoin
from perfkit.workloads.serve_http import ServeHttp
from perfkit.workloads.update_mix import UpdateMix
from perfkit.workloads.cluster_join import ClusterJoin

#: name -> class.  ``cluster-join`` stays after ``serve-http``: its
#: coordinator overhead subtracts the HTTP overhead measured there.
WORKLOADS = {cls.name: cls for cls in (
    SelectPatterns, BgpJoin, ServeHttp, UpdateMix, ClusterJoin)}
