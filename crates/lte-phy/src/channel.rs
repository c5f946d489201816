//! The wireless channel: additive white Gaussian noise.
//!
//! The paper drives its evaluation with an AWGN channel at a configured SNR
//! (§4.2: fixed 30 dB, MCS varied by the load trace) and sweeps SNR 0–30 dB
//! for the processing-time model (Fig. 3(b)). The model produces one
//! received stream per antenna; receive diversity across `N` antennas is
//! what makes the FFT/equalization cost scale with `N` (Eq. 1's `w1·N`).

use crate::complex::Cf32;
use rand::Rng;

/// Draws a standard complex Gaussian `CN(0, 1)` sample (unit total variance).
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R) -> Cf32 {
    // Box-Muller: two uniforms → two independent N(0, 1/2) components.
    let u1: f32 = rng.gen_range(1e-12..1.0f32);
    let u2: f32 = rng.gen_range(0.0..1.0f32);
    let r = (-u1.ln()).sqrt(); // scale for variance 1/2 per axis
    let theta = 2.0 * std::f32::consts::PI * u2;
    Cf32::new(r * theta.cos(), r * theta.sin())
}

/// A channel that turns one transmitted sample stream into `n_antennas`
/// received streams.
pub trait ChannelModel {
    /// Applies the channel. Returns one received stream per antenna, each
    /// the same length as `tx`.
    fn apply<R: Rng + ?Sized>(
        &mut self,
        tx: &[Cf32],
        n_antennas: usize,
        rng: &mut R,
    ) -> Vec<Vec<Cf32>>;

    /// The per-antenna average SNR in dB this channel realizes.
    fn snr_db(&self) -> f64;
}

/// Additive white Gaussian noise with unit channel gain on every antenna.
#[derive(Clone, Debug)]
pub struct AwgnChannel {
    snr_db: f64,
}

impl AwgnChannel {
    /// Creates an AWGN channel with the given per-antenna SNR in dB.
    pub fn new(snr_db: f64) -> Self {
        AwgnChannel { snr_db }
    }

    /// Noise variance per complex sample for a unit-power input.
    pub fn noise_var(&self) -> f32 {
        10f64.powf(-self.snr_db / 10.0) as f32
    }
}

impl ChannelModel for AwgnChannel {
    fn apply<R: Rng + ?Sized>(
        &mut self,
        tx: &[Cf32],
        n_antennas: usize,
        rng: &mut R,
    ) -> Vec<Vec<Cf32>> {
        let sigma = self.noise_var().sqrt();
        (0..n_antennas)
            .map(|_| {
                tx.iter()
                    .map(|&s| s + complex_gaussian(rng).scale(sigma))
                    .collect()
            })
            .collect()
    }

    fn snr_db(&self) -> f64 {
        self.snr_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tone(n: usize) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::from_phase(0.37 * i as f32)).collect()
    }

    #[test]
    fn complex_gaussian_is_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let v: Vec<Cf32> = (0..20000).map(|_| complex_gaussian(&mut rng)).collect();
        let p = mean_power(&v);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
        // Both axes should carry roughly half the energy.
        let re_var: f32 = v.iter().map(|z| z.re * z.re).sum::<f32>() / v.len() as f32;
        assert!((re_var - 0.5).abs() < 0.05, "re var {re_var}");
    }

    #[test]
    fn awgn_noise_power_matches_snr() {
        let mut rng = StdRng::seed_from_u64(2);
        let tx = tone(10000);
        let mut ch = AwgnChannel::new(10.0);
        let rx = ch.apply(&tx, 1, &mut rng);
        let noise: Vec<Cf32> = rx[0].iter().zip(&tx).map(|(r, t)| *r - *t).collect();
        let np = mean_power(&noise);
        assert!((np - 0.1).abs() < 0.01, "noise power {np}");
    }

    #[test]
    fn awgn_produces_independent_antenna_streams() {
        let mut rng = StdRng::seed_from_u64(3);
        let tx = tone(2000);
        let mut ch = AwgnChannel::new(0.0);
        let rx = ch.apply(&tx, 2, &mut rng);
        assert_eq!(rx.len(), 2);
        let mut cross = Cf32::ZERO;
        for ((a, b), t) in rx[0].iter().zip(&rx[1]).zip(&tx) {
            cross += (*a - *t) * (*b - *t).conj();
        }
        assert!(cross.abs() / (tx.len() as f32) < 0.1, "correlated noise");
    }

    #[test]
    fn high_snr_is_nearly_transparent() {
        let mut rng = StdRng::seed_from_u64(4);
        let tx = tone(100);
        let mut ch = AwgnChannel::new(60.0);
        let rx = ch.apply(&tx, 1, &mut rng);
        for (r, t) in rx[0].iter().zip(&tx) {
            assert!((*r - *t).abs() < 0.02);
        }
    }

    #[test]
    fn snr_accessor_roundtrips() {
        assert_eq!(AwgnChannel::new(12.5).snr_db(), 12.5);
    }
}
