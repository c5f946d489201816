//! # rtopex-transport-net — real-network fronthaul transports
//!
//! Byte-transport implementations of the [`rtopex_transport::iface`]
//! trait pair, carrying quantized IQ subframes between an aggregator
//! process and worker hosts over localhost or a real network:
//!
//! * [`udp`] — one wire frame per datagram, tolerant of loss and
//!   reordering (per-cell sequence tracking with wraparound-safe gap
//!   detection); each antenna's datagrams leave in one segmentation-
//!   offload send and arrive in GRO-coalesced receives.
//! * [`tcp`] — length-framed stream with coalesced writes (one syscall
//!   per cell-batch) and sender reconnect with bounded resync.
//!
//! Both share [`wire`] (frame encoding over the `packet.rs` IQ format),
//! [`session`] (the allocation-free rx reassembly hot path, and the one
//! receiver type, [`NetFronthaulRx`], whose io loop is per transport)
//! and [`ring`] (`rtopex-transport`'s preallocated swap-queue ring, the
//! one under the in-process transport too, feeding the cluster's slot
//! arenas with drop-oldest overrun backpressure).
//!
//! **Std-only by design.** This environment cannot reach crates.io, so
//! there is no tokio/mio: sockets are `std::net` with read timeouts,
//! and each receiver runs one dedicated I/O thread. That is also the
//! honest shape for this workload — a fronthaul receiver is a single
//! hot socket per worker, not a connection swarm.
//!
//! This crate is deliberately separate from `rtopex-transport` (the
//! models and the trait) so the core runtime keeps **zero**
//! network-transport dependencies — `cargo xtask layering` enforces
//! the invariant.

#![warn(missing_docs)]
// Unsafe is denied everywhere except `udp::sys`, which declares the two
// socket calls (`setsockopt`, `recvmsg`) std has no API for; every
// block there carries a `// SAFETY:` comment (`cargo xtask lint`).
#![deny(unsafe_code)]

pub mod framing;
pub mod session;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use ring::SwapQueue;
/// The receive ring, shared with the in-process transport.
pub use rtopex_transport::ring;
pub use session::{NetFronthaulRx, RxSession};
pub use tcp::{TcpFronthaulTx, TcpRxPending};
pub use udp::{UdpFronthaulTx, UdpRxPending};
