//! Integration: the full receive path the paper's Fig. 2 draws —
//! TX waveform → 16-bit IQ over the in-process fronthaul → the compute
//! node's receive ring → PHY decode.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtopex::phy::channel::{AwgnChannel, ChannelModel};
use rtopex::phy::params::Bandwidth;
use rtopex::phy::uplink::{UplinkConfig, UplinkRx, UplinkTx};
use rtopex::transport::{
    inproc_pair, Fronthaul, FronthaulRx, FronthaulTx, Recv, StreamParams, SubframeBuf, TestbedLink,
};

#[test]
fn subframe_survives_inproc_transport() {
    let cfg = UplinkConfig::new(Bandwidth::Mhz1_4, 2, 12).expect("config");
    let tx = UplinkTx::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(11);
    let payload: Vec<u8> = (0..cfg.transport_block_bytes())
        .map(|_| rng.gen())
        .collect();
    let sf = tx.encode_subframe(&payload).expect("encode");

    // Over the air, then over the fronthaul: each antenna's stream is
    // quantized to the wire's 16-bit IQ, which the in-process transport
    // carries byte-identical to UDP and TCP.
    let mut chan = AwgnChannel::new(25.0);
    let rx_air = chan.apply(&sf.samples, cfg.num_antennas, &mut rng);
    let params = StreamParams {
        samples_per_subframe: sf.samples.len() as u32,
        antennas: cfg.num_antennas as u8,
        cells: vec![0],
        period_us: 1000,
        budget_us: 1000,
        mcs_pool: vec![12],
        subframes: 1,
    };
    let (mut fh_tx, mut fh_rx) = inproc_pair(params, 1);
    fh_tx.send(0, 1, 12, &rx_air).expect("send");
    let mut buf = SubframeBuf::for_stream(fh_rx.params());
    let got = fh_rx.recv_into(&mut buf, Duration::from_secs(1));
    assert_eq!(got, Ok(Recv::Subframe));
    assert_eq!((buf.cell, buf.seq, buf.mcs), (0, 1, 12));

    let rx = UplinkRx::new(cfg);
    let out = rx.decode_subframe(&buf.samples).expect("decode");
    assert!(out.crc_ok, "16-bit IQ quantization must not break decoding");
    assert_eq!(out.payload, payload);
}

#[test]
fn transport_budget_is_consistent_with_deadlines() {
    // Fronthaul + testbed serialization must fit inside the RTT/2 values
    // the paper sweeps (0.4–0.7 ms) for its deployment scenarios.
    let fh = Fronthaul::off_site_20km();
    let link = TestbedLink::paper_testbed();
    let one_way = fh.one_way_us() + link.one_way_deterministic_us(Bandwidth::Mhz10, 2);
    assert!(
        (400.0..=1_000.0).contains(&one_way),
        "20 km + 2-antenna 10 MHz transport = {one_way} µs"
    );
}
