//! # rtopex-transport — fronthaul and cloud-network transport
//!
//! Models §2.3 of the paper: the path IQ samples travel from the radio
//! front-ends to the compute node, whose one-way latency is the `RTT/2`
//! term of the deadline equation (Eq. 2):
//!
//! ```text
//! T_rxproc + T_fronthaul + T_cloud ≤ 2 ms
//! ```
//!
//! * [`fronthaul`] — fixed-delay optical fronthaul (5 µs/km fiber, optical
//!   switching overhead); negligible jitter, per the paper.
//! * [`cloud`] — the cloud/datacenter network latency distribution of
//!   Fig. 6: ≈ 0.15 ms mean with a long tail (10⁻⁴ of packets above
//!   0.25 ms) for both 1 GbE and 10 GbE.
//! * [`link`] — the testbed serialization model behind Fig. 7: per-radio
//!   1 GbE links aggregated through a switch into the GPP's 10 GbE port,
//!   reproducing "620 µs at 5 MHz, above 1 ms at 10 MHz" and the resulting
//!   8-antenna limit.
//! * [`packet`] — the IQ wire format's pieces, standing in for the CWARP
//!   transport library the testbed used: the 16-bit I/Q sample format,
//!   the 12-byte fragment header ([`PacketHeader`], read and written by
//!   `rtopex-transport-net`'s wire codec) and the wraparound-safe
//!   per-cell sequence tracker.
//! * [`iface`] — the pluggable transport trait pair
//!   ([`FronthaulTx`]/[`FronthaulRx`]): the contract the in-process
//!   emulation and the real byte transports (`rtopex-transport-net`)
//!   both implement, so the cluster runtime is transport-agnostic.
//! * [`ring`] — the receive ring under every transport
//!   ([`SwapQueue`]): buffers allocated as the traffic needs them,
//!   freelist recycling,
//!   drop-oldest overrun policy, and the `delivered`/`drops` counts.
//! * [`inproc`] — the in-process implementation of that trait, a
//!   sender publishing straight into the ring.
//! * [`probe`] — hand-placed branch-edge coverage probes that
//!   `rtopex-fuzz` arms around each input (disarmed and near-free in
//!   production).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cloud;
pub mod fronthaul;
pub mod iface;
pub mod inproc;
pub mod link;
pub mod packet;
pub mod probe;
pub mod ring;

pub use cloud::CloudLatency;
pub use fronthaul::Fronthaul;
pub use iface::{
    FronthaulRx, FronthaulTx, Recv, RxStats, StreamParams, SubframeBuf, TransportError,
    PROTOCOL_VERSION,
};
pub use inproc::{inproc_pair, InProcRx, InProcTx};
pub use link::TestbedLink;
pub use packet::{PacketHeader, SeqEvent, SeqTracker};
pub use ring::SwapQueue;
