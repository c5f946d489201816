//! Property tests for the wire codec: every frame type round-trips
//! through encode → decode, and every decoder survives arbitrary bytes
//! without panicking (the same guarantee the taint pass of
//! `rtopex-analyze` proves statically and the fuzzer probes dynamically
//! — this is the quick, always-on sampling of that surface).

use std::io::Cursor;
use std::sync::atomic::AtomicBool;

use proptest::prelude::*;
use rtopex_phy::Cf32;
use rtopex_transport::iface::StreamParams;
use rtopex_transport::packet::{dequantize, quantize};
use rtopex_transport_net::framing::{FrameReader, Walk};
use rtopex_transport_net::wire;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_roundtrips_for_every_valid_geometry(
        version in any::<u16>(),
        samples in 1u32..=wire::MAX_SAMPLES_PER_SUBFRAME,
        antennas in 1u8..=wire::MAX_ANTENNAS,
        raw_cells in prop::collection::vec(any::<u16>(), 1..=wire::MAX_CELLS_PER_STREAM),
        mcs_pool in prop::collection::vec(any::<u8>(), 0..=wire::MAX_MCS_POOL),
        period_us in any::<u32>(),
        budget_us in any::<u32>(),
        subframes in any::<u32>(),
    ) {
        let mut cells = raw_cells;
        cells.sort_unstable();
        cells.dedup();
        let p = StreamParams {
            samples_per_subframe: samples,
            antennas,
            cells,
            period_us,
            budget_us,
            mcs_pool,
            subframes,
        };
        prop_assert!(wire::validate_geometry(&p).is_ok());
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf, &p, version);
        let (v, back) = wire::decode_hello(&buf).expect("valid hello must decode");
        prop_assert_eq!(v, version);
        prop_assert_eq!(back, p);
    }

    #[test]
    fn hello_ack_roundtrips(version in any::<u16>()) {
        let mut buf = Vec::new();
        wire::encode_hello_ack(&mut buf, version);
        prop_assert_eq!(wire::decode_hello_ack(&buf), Some(version));
    }

    #[test]
    fn iq_frame_roundtrips(
        n in 1usize..=wire::SAMPLES_PER_FRAG,
        mcs in any::<u8>(),
        bs_id in any::<u16>(),
        antenna in any::<u8>(),
        fragment in any::<u8>(),
        total in any::<u16>(),
        seq in any::<u32>(),
        phase_step in 0.0f32..0.4,
    ) {
        let samples: Vec<Cf32> = (0..n)
            .map(|i| Cf32::from_phase(i as f32 * phase_step))
            .collect();
        let mut buf = vec![0u8; wire::iq_frame_len(n)];
        let len = wire::write_iq_frame(
            &mut buf, mcs, bs_id, antenna, fragment, total, seq, &samples,
        );
        prop_assert_eq!(len, buf.len());
        let view = wire::parse_iq(&buf).expect("well-formed IQ frame must parse");
        prop_assert_eq!(view.mcs, mcs);
        prop_assert_eq!(view.header.bs_id, bs_id);
        prop_assert_eq!(view.header.antenna, antenna);
        prop_assert_eq!(view.header.fragment, fragment);
        prop_assert_eq!(view.header.total_fragments, total);
        prop_assert_eq!(view.header.subframe, seq);
        let mut back = vec![Cf32::ZERO; n];
        prop_assert!(wire::dequantize_payload(view.payload, &mut back));
        for (b, s) in back.iter().zip(&samples) {
            // Quantization is the only lossy step in the round trip.
            prop_assert_eq!(b.re, dequantize(quantize(s.re)));
            prop_assert_eq!(b.im, dequantize(quantize(s.im)));
        }
    }

    #[test]
    fn bye_frames_are_unmistakable(tail in prop::collection::vec(any::<u8>(), 0..16)) {
        // BYE is the one-byte frame [FT_BYE]; whatever trails it, no
        // other decoder may claim the frame.
        let mut frame = vec![wire::FT_BYE];
        frame.extend_from_slice(&tail);
        prop_assert_eq!(frame.first(), Some(&wire::FT_BYE));
        prop_assert!(wire::decode_hello(&frame).is_err());
        prop_assert!(wire::decode_hello_ack(&frame).is_none());
        prop_assert!(wire::parse_iq(&frame).is_none());
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..=wire::MAX_FRAME + 8),
    ) {
        let _ = wire::decode_hello(&bytes);
        let _ = wire::decode_hello_ack(&bytes);
        let _ = wire::parse_iq(&bytes);
        let mut dst = vec![Cf32::ZERO; bytes.len() / 4];
        let _ = wire::dequantize_payload(&bytes, &mut dst);
        // The TCP reassembly layer gets the same raw bytes as a stream:
        // walk frames out of it until it runs dry, rejects or says BYE.
        let stop = AtomicBool::new(false);
        let mut cursor = Cursor::new(bytes);
        let mut reader = FrameReader::new();
        while reader.walk(|_| {}) == Walk::Drained && reader.read_more(&mut cursor, &stop).is_ok() {}
    }
}
