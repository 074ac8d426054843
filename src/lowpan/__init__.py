"""6LoWPAN adaptation layer, deterministic LoWPAN simulator and gateways."""

from .frame import (
    Eui64,
    FrameType,
    MacFrame,
    NodeAddress,
    PhyBand,
    Ppdu,
    SecurityMode,
    Short16,
    decode_mac_frame,
    decode_ppdu,
    encode_mac_frame,
    encode_ppdu,
    frame_airtime,
    mac_payload_budget,
)
from .ipv6 import Ipv6Packet, UdpDatagram, decode_ipv6, decode_udp, encode_ipv6, encode_udp, udp_checksum
from .codec import (
    DispatchKind,
    FragHeader,
    MeshHeader,
    compress_ipv6,
    compress_udp,
    decode_bc0,
    decode_frag,
    decode_mesh,
    decompress_ipv6,
    decompress_udp,
    encode_bc0,
    encode_frag_first,
    encode_frag_subsequent,
    encode_mesh,
    parse_dispatch,
)
from .reassembly import FragmentationContext, FragmentOutcome, accept_fragment, fragment
from .gateway import Gateway, GatewayMode, demux, wired_to_lowpan
from .netsim import NodeRole, SimLink, SleepSchedule, TraceRecord, World

__version__ = "0.1.0"
